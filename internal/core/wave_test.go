package core

import (
	"fmt"
	"sync"
	"testing"

	"reptile/internal/dna"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

// waveChunkings are chunk sizes on either side of the wave block: a chunk
// the block swallows whole, one exactly a block, and one that takes a full
// block and a remainder.
var waveChunkings = []int{waveBlock / 3, waveBlock, waveBlock + waveBlock/2 - 60}

// TestWaveEquivalenceStealChunks: stolen, reclaimed and locally popped
// chunks all go through the block driver, whatever the chunk size is
// relative to the block — output byte-identical to the unbatched,
// non-stealing run, with one worker and with a pool.
func TestWaveEquivalenceStealChunks(t *testing.T) {
	ds, opts := testDataset(t, 6*waveBlock, 9100)
	opts.LoadBalance = false
	src := &skewSource{rs: ds.Reads}
	base, err := Run(src, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	chunkings := waveChunkings
	if testing.Short() {
		chunkings = chunkings[2:]
	}
	for _, chunk := range chunkings {
		for _, workers := range []int{0, 2} {
			o := opts
			o.Config.ChunkReads = chunk
			o.Heuristics.LookupBatch = 32
			o.Heuristics.Workers = workers
			o.WorkSteal = true
			var out *Output
			if err := awaitRun(t, "work-stealing run", func() error {
				var err error
				out, err = Run(src, 2, o)
				return err
			}); err != nil {
				t.Fatal(err)
			}
			sameOutput(t, fmt.Sprintf("steal chunk=%d workers=%d", chunk, workers), base, out)
			if out.Run.Sum(func(r *stats.Rank) int64 { return r.ChunksStolen }) == 0 {
				t.Errorf("chunk=%d workers=%d: the idle rank stole nothing", chunk, workers)
			}
		}
	}
}

// TestWaveEquivalenceSessionChunks: served session chunks take the same
// driver. A resident two-rank service corrects the dataset in chunks
// smaller than, equal to and not a multiple of the block, at a local and at
// a remote executor; every read must match the unbatched batch engine's.
func TestWaveEquivalenceSessionChunks(t *testing.T) {
	ds, opts := testDataset(t, 3*waveBlock+700, 9200)
	const np = 2
	base, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64]string)
	for _, r := range base.Corrected() {
		want[r.Seq] = dna.DecodeString(r.Base)
	}

	opts.Heuristics.LookupBatch = 32
	opts.Heuristics.Workers = 2
	eps, err := transport.NewProcGroup(np)
	if err != nil {
		t.Fatal(err)
	}
	defer transport.CloseGroup(eps)
	svcs := make([]*SpectrumService, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 0; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			svcs[r], errs[r] = StartService(eps[r], &MemorySource{Reads: ds.Reads}, opts)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[1] = svcs[1].ServeExecutor()
	}()

	chunkings := waveChunkings
	if testing.Short() {
		chunkings = chunkings[2:]
	}
	for _, chunk := range chunkings {
		for target := 0; target < np; target++ {
			sess, err := svcs[0].OpenAt(target, "wave")
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(ds.Reads); lo += chunk {
				got, _, err := sess.Correct(ds.Reads[lo:min(lo+chunk, len(ds.Reads))])
				if err != nil {
					t.Fatalf("chunk=%d target=%d: %v", chunk, target, err)
				}
				for _, r := range got {
					if dna.DecodeString(r.Base) != want[r.Seq] {
						t.Fatalf("chunk=%d target=%d: read %d differs from the batch engine's correction", chunk, target, r.Seq)
					}
				}
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := svcs[0].Drain(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if errs[1] != nil {
		t.Fatalf("executor rank: %v", errs[1])
	}
}

// TestWaveFillsFrames is what the wave exists for: at batch=32 on four
// ranks a block's staged ids leave in frames at least half full (the
// per-read hint protocol it replaced managed 3-8 ids a frame), while the
// lookups consumed stay exactly the unbatched run's.
func TestWaveFillsFrames(t *testing.T) {
	ds, opts := testDataset(t, 4*waveBlock, 9300)
	const np = 4
	base, err := Run(&MemorySource{Reads: ds.Reads}, np, opts)
	if err != nil {
		t.Fatal(err)
	}
	ob := opts
	ob.Heuristics.LookupBatch = 32
	out, err := Run(&MemorySource{Reads: ds.Reads}, np, ob)
	if err != nil {
		t.Fatal(err)
	}
	sameOutput(t, "wave", base, out)
	if got, want := lookupCounters(out), lookupCounters(base); got != want {
		t.Errorf("lookup counters %v, unbatched %v", got, want)
	}
	frames := out.Run.Sum(func(r *stats.Rank) int64 { return r.BatchesSent })
	ids := out.Run.Sum(func(r *stats.Rank) int64 { return r.BatchedLookups })
	if frames == 0 || float64(ids)/float64(frames) < 16 {
		t.Errorf("%d ids in %d frames (%.1f ids/frame), want >= 16", ids, frames, float64(ids)/float64(max(frames, 1)))
	}
	t.Logf("%d ids in %d frames: %.1f ids/frame", ids, frames, float64(ids)/float64(frames))
}
