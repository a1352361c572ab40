package reptile

import (
	"math/rand"
	"slices"
	"testing"

	"reptile/internal/genome"
	"reptile/internal/kmer"
	"reptile/internal/reads"
)

// scriptedOracle is a Prefetcher whose remote side is a script: an id it has
// not "fetched" peeks pending with probability pendProb the first time it is
// seen (and is otherwise treated as local), stays pending until fetch moves
// it across, and every consumed lookup is logged so the run can be compared
// lookup for lookup with a blocking one.
type scriptedOracle struct {
	LocalOracle
	t        *testing.T
	rng      *rand.Rand
	pendProb float64
	fetched  map[lookupRec]bool
	staged   []lookupRec
	consumed []lookupRec
}

func (o *scriptedOracle) peek(rec lookupRec) bool {
	ready, seen := o.fetched[rec]
	if !seen {
		ready = o.rng.Float64() >= o.pendProb
		o.fetched[rec] = ready
		if !ready {
			o.staged = append(o.staged, rec)
		}
	}
	return ready
}

func (o *scriptedOracle) PeekKmer(id kmer.ID) (uint32, bool, bool) {
	if !o.peek(lookupRec{id: id}) {
		return 0, false, false
	}
	cnt, ok := o.Kmers.Count(id)
	return cnt, ok, true
}

func (o *scriptedOracle) PeekTile(id kmer.ID) (uint32, bool, bool) {
	if !o.peek(lookupRec{id: id, tile: true}) {
		return 0, false, false
	}
	cnt, ok := o.Tiles.Count(id)
	return cnt, ok, true
}

func (o *scriptedOracle) consume(rec lookupRec) {
	if o.fetched != nil && !o.fetched[rec] {
		o.t.Errorf("lookup %+v consumed before it peeked ready", rec)
	}
	o.consumed = append(o.consumed, rec)
}

func (o *scriptedOracle) KmerCount(id kmer.ID) (uint32, bool) {
	o.consume(lookupRec{id: id})
	return o.LocalOracle.KmerCount(id)
}

func (o *scriptedOracle) TileCount(id kmer.ID) (uint32, bool) {
	o.consume(lookupRec{id: id, tile: true})
	return o.LocalOracle.TileCount(id)
}

// fetch moves staged ids across the wire: all of them, or — a drain that
// answered only part of what a read waits on — a random non-empty subset.
func (o *scriptedOracle) fetch(partial bool) {
	o.rng.Shuffle(len(o.staged), func(i, j int) { o.staged[i], o.staged[j] = o.staged[j], o.staged[i] })
	n := len(o.staged)
	if partial && n > 1 {
		n = 1 + o.rng.Intn(n)
	}
	for _, rec := range o.staged[:n] {
		o.fetched[rec] = true
	}
	o.staged = o.staged[n:]
}

// TestResumableWalkMatchesBlocking is the wave driver's foundation: under
// any schedule of pending answers — every lookup pending, random subsets,
// drains that answer only part of what was staged — Advance leaves the same
// bases and the same Result as the blocking CorrectRead, and the oracle
// consumes the same lookups in the same order, each exactly once.
func TestResumableWalkMatchesBlocking(t *testing.T) {
	g := genome.NewGenome(6000, 91)
	prof := genome.DefaultProfile(70)
	prof.ErrorBoost = 6 // enough multi-error tiles to reach the radius-2 search
	ds := genome.Simulate("resume", g, 1500, prof, 92)
	cfg := testConfig()
	batch := ds.Reads
	// Reads shorter than a tile, and exactly a tile, walk too.
	batch = append(batch, mkShortRead(cfg.Spec.TileLen()-1), mkShortRead(cfg.Spec.TileLen()), mkShortRead(0))
	kmers, tiles := BuildSpectra(batch, cfg)
	if testing.Short() {
		batch = batch[len(batch)-400:]
	}

	for _, maxCorr := range []int{cfg.MaxCorrectionsPerRead, 1} {
		cfg.MaxCorrectionsPerRead = maxCorr
		want := cloneBatch(batch)
		ref := &scriptedOracle{LocalOracle: LocalOracle{Kmers: kmers, Tiles: tiles}, t: t}
		rc, err := NewCorrector(cfg, ref)
		if err != nil {
			t.Fatal(err)
		}
		wantRes := make([]Result, len(want))
		var total Result
		bounds := make([]int, len(want)+1) // ref.consumed[bounds[i]:bounds[i+1]] is read i's
		for i := range want {
			wantRes[i] = rc.CorrectRead(&want[i])
			total.Add(wantRes[i])
			bounds[i+1] = len(ref.consumed)
		}
		// The dataset must reach what the test claims to cover.
		if total.BasesCorrected <= total.TilesRepaired {
			t.Fatalf("maxCorr=%d: no radius-2 repair in the reference run (%+v)", maxCorr, total)
		}
		if total.TilesGivenUp == 0 || total.TilesSolid == 0 {
			t.Fatalf("maxCorr=%d: reference run lacks given-up or solid tiles (%+v)", maxCorr, total)
		}

		for _, sched := range []struct {
			name     string
			pendProb float64
			partial  bool
		}{
			{"never-pending", 0, false},
			{"every-lookup-pending", 1, false},
			{"every-lookup-pending-partial-drains", 1, true},
			{"random-30", 0.3, false},
			{"random-70-partial-drains", 0.7, true},
		} {
			got := cloneBatch(batch)
			rng := rand.New(rand.NewSource(int64(93 + maxCorr)))
			suspensions := 0
			for i := range got {
				// A fresh oracle per read: what is pending for one read must
				// not have been fetched on behalf of an earlier one.
				o := &scriptedOracle{LocalOracle: LocalOracle{Kmers: kmers, Tiles: tiles}, t: t,
					rng: rng, pendProb: sched.pendProb, fetched: make(map[lookupRec]bool)}
				c, err := NewCorrector(cfg, o)
				if err != nil {
					t.Fatal(err)
				}
				var w Walk
				for !c.Advance(&got[i], &w) {
					if len(o.staged) == 0 {
						t.Fatalf("%s: read %d suspended with nothing staged", sched.name, i)
					}
					suspensions++
					o.fetch(sched.partial)
				}
				if !c.Advance(&got[i], &w) {
					t.Fatalf("%s: read %d: a finished walk resumed", sched.name, i)
				}
				if w.Res != wantRes[i] {
					t.Fatalf("%s maxCorr=%d: read %d result %+v, blocking %+v", sched.name, maxCorr, i, w.Res, wantRes[i])
				}
				if !slices.Equal(got[i].Base, want[i].Base) {
					t.Fatalf("%s maxCorr=%d: read %d bases differ from the blocking walk", sched.name, maxCorr, i)
				}
				if !slices.Equal(o.consumed, ref.consumed[bounds[i]:bounds[i+1]]) {
					t.Fatalf("%s maxCorr=%d: read %d consumed %d lookups, blocking %d (or in another order)",
						sched.name, maxCorr, i, len(o.consumed), bounds[i+1]-bounds[i])
				}
			}
			if (sched.pendProb > 0) != (suspensions > 0) {
				t.Errorf("%s: %d suspensions", sched.name, suspensions)
			}
		}
	}
}

func cloneBatch(batch []reads.Read) []reads.Read {
	out := make([]reads.Read, len(batch))
	for i := range batch {
		out[i] = batch[i].Clone()
	}
	return out
}

// TestCorrectReadDoesNotAllocate pins the blocking path's steady state: once
// the scratch buffers have grown, correcting a read over a LocalOracle —
// weak tiles, quality sort and repairs included — allocates nothing.
func TestCorrectReadDoesNotAllocate(t *testing.T) {
	g := genome.NewGenome(6000, 94)
	ds := genome.Simulate("allocs", g, 600, genome.DefaultProfile(70), 95)
	cfg := testConfig()
	kmers, tiles := BuildSpectra(ds.Reads, cfg)
	c, err := NewCorrector(cfg, &LocalOracle{Kmers: kmers, Tiles: tiles})
	if err != nil {
		t.Fatal(err)
	}
	work := cloneBatch(ds.Reads)
	var res Result
	i := 0
	allocs := testing.AllocsPerRun(len(work)-1, func() {
		res.Add(c.CorrectRead(&work[i]))
		i++
	})
	if res.TilesRepaired == 0 || res.TilesGivenUp == 0 {
		t.Fatalf("run never reached the repair path: %+v", res)
	}
	if allocs != 0 {
		t.Errorf("CorrectRead allocates %.2f times per read, want 0", allocs)
	}
}
