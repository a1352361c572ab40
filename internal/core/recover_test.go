package core

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"reptile/internal/reads"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// recoverOpts arms the recovery layer on a testDataset option set: replica
// placement needs the batched lookup pipeline (Options.Validate enforces
// it), and R=2 is the only supported replication degree.
func recoverOpts(opts Options) Options {
	opts.Replicas = 2
	opts.Heuristics.LookupBatch = 16
	return opts
}

// crashCorrectPlan schedules rank 1's death at its 3rd send inside the
// correct phase — after the spectra are frozen and replicated, while the
// lookup traffic is in full flight.
func crashCorrectPlan(seed int64) transport.Plan {
	plan := transport.NewPlan(seed)
	plan.CrashRank = 1
	plan.CrashPhase = "correct"
	plan.CrashAfter = 3
	return plan
}

// TestRecoverCrashDuringCorrectProc: with R=2 replicas, a single rank dying
// mid-correction must NOT abort the run — the survivors fail lookups over to
// the replica holder, re-replicate the lost shard, correct the dead rank's
// reads by proxy, and the aggregated output is byte-identical to a
// fault-free run.
func TestRecoverCrashDuringCorrectProc(t *testing.T) {
	ds, opts := testDataset(t, 600, 8100)
	opts = recoverOpts(opts)
	base, err := Run(&MemorySource{Reads: ds.Reads}, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds(t) {
		plan := crashCorrectPlan(seed)
		plan.Delay = 10 * time.Microsecond
		plan.Jitter = 30 * time.Microsecond
		o := opts
		o.Chaos = &plan
		var out *Output
		err := awaitRun(t, "recovered run", func() error {
			var err error
			out, err = Run(&MemorySource{Reads: ds.Reads}, 3, o)
			return err
		})
		if err != nil {
			t.Fatalf("seed %d: crash was not recovered: %v", seed, err)
		}
		sameOutput(t, "recovered proc crash", base, out)
		if len(out.ByRank[1]) != 0 {
			t.Errorf("seed %d: crashed rank contributed %d reads of its own", seed, len(out.ByRank[1]))
		}
		recovered := false
		for _, r := range out.Run.Ranks {
			for _, d := range r.RecoveredRanks {
				if d == 1 {
					recovered = true
				}
			}
		}
		if !recovered {
			t.Errorf("seed %d: no survivor recorded rank 1 as recovered", seed)
		}
		if n := out.Run.Sum(func(r *stats.Rank) int64 { return r.ShardsRereplicated }); n != 2 {
			t.Errorf("seed %d: %d shards re-replicated, want 2 (k-mer + tile)", seed, n)
		}
		if n := out.Run.Sum(func(r *stats.Rank) int64 { return r.ReadsRecovered }); n == 0 {
			t.Errorf("seed %d: no reads recovered from the dead rank's estate", seed)
		}
	}
}

// TestRecoverCrashDuringCorrectTCP: the same single-crash recovery over real
// sockets — peers detect the loss through read deadlines, the survivors
// complete, and their merged output matches a fault-free in-process run.
func TestRecoverCrashDuringCorrectTCP(t *testing.T) {
	ds, opts := testDataset(t, 600, 8200)
	opts = recoverOpts(opts)
	base, err := Run(&MemorySource{Reads: ds.Reads}, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	outs, errs := chaosTCPRanks(t, ds.Reads, 3, opts, crashCorrectPlan(17), 3*time.Second)
	if errs[1] == nil {
		t.Fatal("crashed rank completed")
	}
	if !errors.Is(errs[1], transport.ErrInjected) {
		t.Errorf("crashed rank's error does not wrap ErrInjected: %v", errs[1])
	}
	got := &Output{ByRank: make([][]reads.Read, 3)}
	recovered := false
	for _, r := range []int{0, 2} {
		if errs[r] != nil {
			t.Fatalf("surviving rank %d failed instead of recovering: %v", r, errs[r])
		}
		got.ByRank[r] = outs[r].Corrected
		got.Result.Add(outs[r].Result)
		for _, d := range outs[r].Stats.RecoveredRanks {
			if d == 1 {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Error("no survivor recorded rank 1 as recovered")
	}
	sameOutput(t, "recovered tcp crash", base, got)
}

// TestRecoverCrashWithoutReplicasAborts: the same crash schedule without
// replicas must keep today's contract — every rank aborts cleanly, and the
// abort record names the dead rank, not whichever survivor noticed first.
func TestRecoverCrashWithoutReplicasAborts(t *testing.T) {
	ds, opts := testDataset(t, 600, 8300)
	opts.Heuristics.LookupBatch = 16
	errs := runChaosRanks(t, ds.Reads, 3, opts, crashCorrectPlan(42))
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d completed despite the unrecoverable crash", r)
		}
		var ab *AbortError
		if !errors.As(err, &ab) {
			t.Fatalf("rank %d: %T is not an AbortError: %v", r, err, err)
		}
		if ab.Rank != 1 {
			t.Errorf("rank %d attributes the abort to rank %d, want the dead rank 1", r, ab.Rank)
		}
	}
	if !errors.Is(errs[1], transport.ErrInjected) {
		t.Errorf("crashed rank's error does not wrap ErrInjected: %v", errs[1])
	}
}

// TestRecoverCrashMidDrain kills a shard owner while its peers' waves are
// mid-drain: thin frames (LookupBatch=4) and a two-worker pool keep dozens
// of frames on the wire per flush, and the crash ordinals land after the
// dead rank has answered part of a round. With replicas the flush leader
// reroutes every frame the death swallowed and the wave completes
// byte-identically; without them no read may be left suspended — every rank
// aborts, attributing the dead rank.
func TestRecoverCrashMidDrain(t *testing.T) {
	ds, opts := testDataset(t, 1200, 8700)
	opts.Heuristics.LookupBatch = 4
	opts.Heuristics.Workers = 2
	ropts := opts
	ropts.Replicas = 2
	base, err := Run(&MemorySource{Reads: ds.Reads}, 3, ropts)
	if err != nil {
		t.Fatal(err)
	}
	failovers := int64(0)
	for _, after := range []int64{20, 60, 150} {
		plan := crashCorrectPlan(chaosSeeds(t)[len(chaosSeeds(t))-1])
		plan.CrashAfter = after
		plan.Jitter = 20 * time.Microsecond

		o := ropts
		o.Chaos = &plan
		var out *Output
		if err := awaitRun(t, "recovered run", func() error {
			var err error
			out, err = Run(&MemorySource{Reads: ds.Reads}, 3, o)
			return err
		}); err != nil {
			t.Fatalf("crash at send %d was not recovered: %v", after, err)
		}
		sameOutput(t, "crash mid-drain", base, out)
		failovers += out.Run.Sum(func(r *stats.Rank) int64 { return r.FailoversTaken })

		for r, err := range runChaosRanks(t, ds.Reads, 3, opts, plan) {
			var ab *AbortError
			if !errors.As(err, &ab) {
				t.Fatalf("crash at send %d, no replicas: rank %d returned %v, want an AbortError", after, r, err)
			}
			if ab.Rank != 1 {
				t.Errorf("crash at send %d: rank %d attributes the abort to rank %d, want the dead rank 1", after, r, ab.Rank)
			}
		}
	}
	if failovers == 0 {
		t.Error("no lookup frame was ever rerouted: the crashes missed the drains")
	}
}

// TestRecoverCrashDuringBuildStillAborts: replicas only exist once the
// frozen spectra have been exchanged, so a crash during construction is
// unrecoverable by design and must abort exactly as before — replicas armed
// or not.
func TestRecoverCrashDuringBuildStillAborts(t *testing.T) {
	ds, opts := testDataset(t, 600, 8400)
	opts = recoverOpts(opts)
	plan := transport.NewPlan(42)
	plan.CrashRank = 1
	plan.CrashPhase = "spectrum"
	plan.CrashAfter = 3
	errs := runChaosRanks(t, ds.Reads, 3, opts, plan)
	for r, err := range errs {
		if err == nil {
			t.Fatalf("rank %d completed despite a build-phase crash", r)
		}
		var ab *AbortError
		if !errors.As(err, &ab) {
			t.Fatalf("rank %d: %T is not an AbortError: %v", r, err, err)
		}
	}
	if !errors.Is(errs[1], transport.ErrInjected) {
		t.Errorf("crashed rank's error does not wrap ErrInjected: %v", errs[1])
	}
}

// skewSource hands every read to rank 0 and nothing to the others — the
// worst-case imbalance the work-stealing scheduler exists to fix.
type skewSource struct {
	rs []reads.Read
}

// Open implements Source.
func (s *skewSource) Open(rank, np, chunk int) (BatchReader, error) {
	if rank == 0 {
		return &memoryReader{shard: s.rs, chunk: chunk}, nil
	}
	return &memoryReader{chunk: chunk}, nil
}

// TestWorkStealingPreservesOutput: under a fully skewed assignment the idle
// rank must steal chunks from the loaded one, and because stolen corrections
// are written back by chunk id, the output must stay byte-identical to the
// no-stealing run.
func TestWorkStealingPreservesOutput(t *testing.T) {
	ds, opts := testDataset(t, 800, 8500)
	opts.LoadBalance = false
	opts.Config.ChunkReads = 64
	opts.Heuristics.LookupBatch = 16
	src := &skewSource{rs: ds.Reads}
	base, err := Run(src, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.WorkSteal = true
	var out *Output
	if err := awaitRun(t, "work-stealing run", func() error {
		var err error
		out, err = Run(src, 2, o)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "work stealing", base, out)
	stolen := out.Run.Sum(func(r *stats.Rank) int64 { return r.ChunksStolen })
	lent := out.Run.Sum(func(r *stats.Rank) int64 { return r.ChunksLent })
	if stolen == 0 {
		t.Error("idle rank stole no chunks from the loaded rank")
	}
	if stolen != lent {
		t.Errorf("%d chunks stolen but %d lent", stolen, lent)
	}
	if out.Run.Ranks[1].ChunksStolen == 0 {
		t.Error("rank 1 (the idle rank) recorded no stolen chunks")
	}
}

// TestIdleDeathAttribution: a rank that hangs between phases sends nothing —
// not even heartbeats — so its peers' read deadlines must expire the links,
// and the resulting abort must name the silent rank, not the observer that
// timed out first.
func TestIdleDeathAttribution(t *testing.T) {
	ds, opts := testDataset(t, 200, 8600)
	const np = 3
	addrs := make([]string, np)
	lns := make([]net.Listener, np)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	src := &MemorySource{Reads: ds.Reads}
	errs := make([]error, np)
	release := make(chan struct{})
	returned := make(chan int, np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Rank 1 joins the group and then goes silent: PeerTimeout=0
			// disables its read deadlines AND its heartbeats, modeling a
			// process that is alive at the socket level but wedged — the
			// hardest loss to attribute, since no connection ever errors.
			timeout := 1200 * time.Millisecond
			if r == 1 {
				timeout = 0
			}
			e, err := transport.NewTCP(transport.TCPConfig{
				Rank: r, Addrs: addrs,
				DialTimeout: 10 * time.Second,
				PeerTimeout: timeout,
			})
			if err != nil {
				errs[r] = err
				returned <- r
				return
			}
			defer e.Close()
			if r == 1 {
				<-release
				return
			}
			_, errs[r] = RunRank(e, src, opts)
			returned <- r
		}(r)
	}
	// Peers must expire the idle rank on their own; it is released (and its
	// endpoint closed) only after both survivors have already returned.
	_ = awaitRun(t, "idle-death group", func() error {
		<-returned
		<-returned
		return nil
	})
	close(release)
	wg.Wait()
	for _, r := range []int{0, 2} {
		var ab *AbortError
		if !errors.As(errs[r], &ab) {
			t.Fatalf("rank %d: %T is not an AbortError: %v", r, errs[r], errs[r])
		}
		if ab.Rank != 1 {
			t.Errorf("rank %d attributes the abort to rank %d, want the idle rank 1", r, ab.Rank)
		}
		if !errors.Is(errs[r], transport.ErrPeerDown) {
			t.Errorf("rank %d error does not wrap ErrPeerDown: %v", r, errs[r])
		}
	}
}
