package harness

// Shape tests: each paper figure's *qualitative* claim, asserted on live
// engine runs at test scale. These are the "reproduced means" criteria of
// DESIGN.md §4 — who wins, and roughly by how much.

import (
	"strconv"
	"strings"
	"testing"

	"reptile/internal/core"
	"reptile/internal/genome"
	"reptile/internal/machine"
	"reptile/internal/stats"
)

func shapeDataset(t *testing.T, localized bool) *genome.Dataset {
	t.Helper()
	p := genome.EColiSim.Scaled(0.06)
	if localized {
		return p.BuildLocalized()
	}
	return p.Build()
}

func mustRun(t *testing.T, ds *genome.Dataset, np int, h core.Heuristics, balance bool) *core.Output {
	t.Helper()
	out, err := engineRun(ds, np, optionsFor(Scale{}, ds, h, balance))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustProject(t *testing.T, out *core.Output, shape machine.Shape, h core.Heuristics) machine.Projection {
	t.Helper()
	p, err := project(out, shape, h)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Fig 2's claim: at fixed rank count, 32 ranks/node is slower than 8, and
// the increase comes from communication.
func TestShapeFig2_MoreRanksPerNodeSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run")
	}
	ds := shapeDataset(t, false)
	// Multiple nodes at every ranks-per-node setting, as in the paper's
	// 128-rank sweep (16 nodes at 8 rpn down to 4 nodes at 32 rpn);
	// collapsing to one node would flip the comparison by making all
	// traffic intra-node.
	const np = 64
	out := mustRun(t, ds, np, core.Heuristics{}, true)
	p8 := mustProject(t, out, machine.Shape{Ranks: np, RanksPerNode: 8, ThreadsPerRank: 2}, core.Heuristics{})
	p32 := mustProject(t, out, machine.Shape{Ranks: np, RanksPerNode: 32, ThreadsPerRank: 2}, core.Heuristics{})
	if p32.TotalTime() <= p8.TotalTime() {
		t.Errorf("32 rpn (%.3fs) not slower than 8 rpn (%.3fs)", p32.TotalTime(), p8.TotalTime())
	}
	commDelta := p32.CommTimeMax - p8.CommTimeMax
	totalDelta := p32.TotalTime() - p8.TotalTime()
	if commDelta < totalDelta/3 {
		t.Errorf("slowdown not communication-dominated: comm +%.3fs of total +%.3fs", commDelta, totalDelta)
	}
}

// Fig 4's claim: on error-localized input, balancing collapses the spread
// in per-rank corrections and narrows per-rank communication time.
func TestShapeFig4_BalancingFlattensRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("two engine runs")
	}
	ds := shapeDataset(t, true)
	const np = 16
	h := core.Heuristics{}
	imb := mustRun(t, ds, np, h, false)
	bal := mustRun(t, ds, np, h, true)
	errs := func(r *stats.Rank) int64 { return r.BasesCorrected }
	if bal.Run.SpreadPct(errs) >= imb.Run.SpreadPct(errs) {
		t.Errorf("balanced error spread %.1f%% not below imbalanced %.1f%%",
			bal.Run.SpreadPct(errs), imb.Run.SpreadPct(errs))
	}
	shape := shape32(np)
	pImb := mustProject(t, imb, shape, h)
	pBal := mustProject(t, bal, shape, h)
	if pBal.CorrectTime >= pImb.CorrectTime {
		t.Errorf("balanced correction %.3fs not faster than imbalanced %.3fs", pBal.CorrectTime, pImb.CorrectTime)
	}
	imbRatio := pImb.CommTimeMax / (pImb.CommTimeMin + 1e-12)
	balRatio := pBal.CommTimeMax / (pBal.CommTimeMin + 1e-12)
	if balRatio >= imbRatio {
		t.Errorf("comm-time ratio did not shrink: %.2f -> %.2f", imbRatio, balRatio)
	}
}

// Fig 5's claims: universal beats base a little for free; replicating the
// tile spectrum beats replicating the k-mer spectrum; replicating both is
// fastest but costs the most memory; partial replication sits between base
// and full replication in both time and memory.
func TestShapeFig5_HeuristicOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("several engine runs")
	}
	ds := shapeDataset(t, false)
	const np = 16
	shape := shape32(np)
	type res struct {
		total float64
		mem   int64
	}
	runMode := func(h core.Heuristics) res {
		out := mustRun(t, ds, np, h, true)
		p := mustProject(t, out, shape, h)
		return res{p.TotalTime(), out.Run.Max(func(r *stats.Rank) int64 { return r.MemAfterConstruct })}
	}
	base := runMode(core.Heuristics{})
	uni := runMode(core.Heuristics{Universal: true})
	replK := runMode(core.Heuristics{ReplicateKmers: true})
	replT := runMode(core.Heuristics{ReplicateTiles: true})
	replB := runMode(core.Heuristics{ReplicateKmers: true, ReplicateTiles: true})
	part := runMode(core.Heuristics{PartialReplicationGroup: 4})

	if uni.total >= base.total {
		t.Errorf("universal (%.3fs) not faster than base (%.3fs)", uni.total, base.total)
	}
	if replT.total >= replK.total {
		t.Errorf("repl-tiles (%.3fs) not faster than repl-kmers (%.3fs): tile traffic should dominate", replT.total, replK.total)
	}
	if replB.total >= base.total {
		t.Errorf("repl-both (%.3fs) not faster than base (%.3fs)", replB.total, base.total)
	}
	if replB.mem <= base.mem {
		t.Errorf("repl-both memory (%d) not above base (%d)", replB.mem, base.mem)
	}
	if !(part.mem > base.mem && part.mem < replB.mem) {
		t.Errorf("partial replication memory %d not between base %d and repl-both %d", part.mem, base.mem, replB.mem)
	}
	if part.total >= base.total {
		t.Errorf("partial replication (%.3fs) not faster than base (%.3fs)", part.total, base.total)
	}
}

// Figs 6-7's claim: correction time falls as ranks grow, at sane parallel
// efficiency, and the balanced run beats the imbalanced one at every scale.
func TestShapeFig6_ScalingCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("rank sweep")
	}
	ds := shapeDataset(t, true)
	h := core.Heuristics{}
	var prevTotal float64
	var baseRanks int
	var baseTime float64
	for i, np := range []int{8, 16, 32} {
		bal := mustRun(t, ds, np, h, true)
		imb := mustRun(t, ds, np, h, false)
		pBal := mustProject(t, bal, shape32(np), h)
		pImb := mustProject(t, imb, shape32(np), h)
		if pImb.TotalTime() <= pBal.TotalTime() {
			t.Errorf("np=%d: imbalanced (%.3fs) not slower than balanced (%.3fs)", np, pImb.TotalTime(), pBal.TotalTime())
		}
		if i == 0 {
			baseRanks, baseTime = np, pBal.TotalTime()
		} else {
			if pBal.TotalTime() >= prevTotal {
				t.Errorf("np=%d: total %.3fs did not fall below %.3fs", np, pBal.TotalTime(), prevTotal)
			}
			eff := machine.Efficiency(baseRanks, baseTime, np, pBal.TotalTime())
			if eff < 0.25 || eff > 1.2 {
				t.Errorf("np=%d: efficiency %.2f out of band", np, eff)
			}
		}
		prevTotal = pBal.TotalTime()
	}
}

// The memory-scalability headline: per-rank spectrum memory falls as ranks
// grow (the reason the distributed layout exists at all).
func TestShapeMemoryFallsWithRanks(t *testing.T) {
	if testing.Short() {
		t.Skip("rank sweep")
	}
	ds := shapeDataset(t, false)
	mem := func(np int) int64 {
		out := mustRun(t, ds, np, core.Heuristics{}, true)
		return out.Run.Max(func(r *stats.Rank) int64 { return r.MemAfterConstruct })
	}
	m4, m16 := mem(4), mem(16)
	if m16 >= m4 {
		t.Errorf("per-rank memory did not fall with ranks: %d at np=4, %d at np=16", m4, m16)
	}
}

// The lookup experiment's claim: wavefront correction cuts the
// correction-phase request messages at least 15x against the unbatched
// protocol at batch=32, in frames at least half full, with identical output
// (the experiment itself fails the run if the corrected bases drift between
// modes, or if the worker pool falls more than 10% behind one worker).
func TestShapeLookup_BatchingCutsMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("four engine runs")
	}
	tab, err := Lookup(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("lookup table has %d rows", len(tab.Rows))
	}
	reduction := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[5], "x"), 64)
		if err != nil {
			t.Fatalf("reduction cell %q: %v", row[5], err)
		}
		return v
	}
	for _, row := range tab.Rows[1:] {
		if row[3] == "0" {
			t.Errorf("%s: no batch frames recorded", row[0])
		}
	}
	if r := reduction(tab.Rows[2]); r < 15.0 {
		t.Errorf("batch=32 reduced messages only %.2fx, want >= 15x", r)
	}
	if perFrame, err := strconv.ParseFloat(tab.Rows[2][4], 64); err != nil || perFrame < 16 {
		t.Errorf("batch=32 ids/frame cell %q, want >= 16", tab.Rows[2][4])
	}
}
