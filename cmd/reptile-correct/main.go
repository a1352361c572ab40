// Command reptile-correct runs the distributed corrector over a fasta +
// quality file pair and writes the corrected reads.
//
// Single process, goroutine ranks (default):
//
//	reptile-correct -fasta ds.fa -qual ds.qual -np 16 -out corrected
//
// One process per rank over TCP (run once per rank, shared -addrs list):
//
//	reptile-correct -fasta ds.fa -qual ds.qual -transport tcp \
//	    -rank 0 -addrs host0:9000,host1:9000 -out corrected
//
// Heuristics mirror the paper's Section III-B flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"reptile/internal/config"
	"reptile/internal/core"
	"reptile/internal/fastaio"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/snapshot"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

func main() {
	var (
		configPath = flag.String("config", "", "run-configuration file (paper-style); overrides the other flags")
		dumpConfig = flag.Bool("dump-config", false, "print the default configuration file and exit")

		fasta = flag.String("fasta", "", "input fasta file (headers = sequence numbers)")
		qual  = flag.String("qual", "", "input quality-score file")
		out   = flag.String("out", "corrected", "output prefix (<out>.fa, <out>.qual)")
		np    = flag.Int("np", 8, "number of ranks (proc transport)")

		k         = flag.Int("k", 12, "k-mer length")
		overlap   = flag.Int("overlap", 4, "tile overlap in bases")
		kmerThr   = flag.Uint("kmer-threshold", 6, "k-mer solidity threshold")
		tileThr   = flag.Uint("tile-threshold", 3, "tile solidity threshold")
		chunk     = flag.Int("chunk", 4096, "reads per processing chunk")
		noBalance = flag.Bool("no-balance", false, "disable static load balancing")

		universal = flag.Bool("universal", false, "universal (self-describing) request messages")
		readKmers = flag.Bool("read-kmers", false, "retain read k-mer/tile tables with global counts")
		cache     = flag.Bool("cache-remote", false, "cache remote lookups (implies -read-kmers)")
		replKmers = flag.Bool("replicate-kmers", false, "replicate the k-mer spectrum on every rank")
		replTiles = flag.Bool("replicate-tiles", false, "replicate the tile spectrum on every rank")
		batch     = flag.Bool("batch-reads", false, "exchange spectra after every chunk (bounded reads tables)")
		partial   = flag.Int("partial-replication", 0, "partial replication group size (0 = off)")

		lookupBatch  = flag.Int("lookup-batch", 0, "coalesce up to this many remote lookups per request frame; reads are then corrected in waves, a block's remote lookups resolved per round trip (0 = classic one-per-message protocol; output is identical either way)")
		lookupWindow = flag.Int("lookup-window", 0, "in-flight batch frames per peer (0 = the default of 64 when -lookup-batch is on)")
		workers      = flag.Int("workers", 0, "worker goroutines per rank, for both spectrum-build sharding and the correction pool (0/1 = single worker; >1 requires -lookup-batch; output is identical for every count)")
		replicas     = flag.Int("replicas", 0, "frozen-spectrum replication degree: 2 places each rank's shard on its ring successor too, so a single rank crash during correction is survived instead of aborting (implies -lookup-batch 16 unless set)")
		steal        = flag.Bool("steal", false, "correct-phase work stealing: idle ranks take whole chunks from loaded peers, output stays byte-identical (implies -lookup-batch 16 unless set)")

		stream      = flag.Bool("stream", false, "streaming mode: never hold reads whole; write per-rank outputs incrementally (proc transport)")
		corrections = flag.String("corrections", "", "also write the list of applied substitutions (seq, pos, from, to) to this file (proc non-streaming mode)")

		cacheDir = flag.String("cache-dir", "", "spectrum-snapshot cache directory: reuse frozen spectra across runs keyed by input content and parameters; a miss builds and publishes, a hit skips construction")
		snapPath = flag.String("snapshot", "", "explicit spectrum-snapshot prefix (<prefix>.r<rank>.rsnap): load if present and matching, else build and save there (mutually exclusive with -cache-dir)")

		transportName = flag.String("transport", "proc", "proc (goroutine ranks) or tcp (one process per rank)")
		rank          = flag.Int("rank", 0, "this process's rank (tcp transport)")
		addrs         = flag.String("addrs", "", "comma-separated rank addresses (tcp transport)")
		deadline      = flag.Duration("deadline", 0, "peer-failure detection window (tcp transport): a silent peer surfaces as an error within this; 0 disables deadlines and heartbeats")
		chaosSpec     = flag.String("chaos", "", "fault schedule to inject, e.g. delay=2ms,jitter=1ms,slow=1x4,crash=2@100,corrupt=1@50,drop=0-1@30")
		chaosSeed     = flag.Int64("chaos-seed", 1, "seed for the fault schedule's jitter stream")
		verbose       = flag.Bool("v", false, "print per-rank statistics")
	)
	flag.Parse()

	if *dumpConfig {
		fmt.Print(config.Default().Render())
		return
	}
	if *configPath != "" {
		settings, err := config.Load(*configPath)
		if err != nil {
			fatal(err)
		}
		if settings.FastaPath == "" || settings.QualPath == "" {
			fatal(fmt.Errorf("%s: fasta and qual are required", *configPath))
		}
		src := &core.FileSource{FastaPath: settings.FastaPath, QualPath: settings.QualPath}
		if err := resolveSnapshotDigest(&settings.Options, settings.FastaPath, settings.QualPath); err != nil {
			fatal(err)
		}
		start := time.Now()
		if settings.Streaming {
			runStreaming(src, settings.Ranks, settings.Options, settings.OutPrefix, *verbose)
		} else {
			runProc(src, settings.Ranks, settings.Options, settings.OutPrefix, *verbose)
		}
		fmt.Printf("total wall time %v\n", time.Since(start).Round(time.Millisecond))
		return
	}

	if *fasta == "" || *qual == "" {
		fmt.Fprintln(os.Stderr, "reptile-correct: -fasta and -qual are required")
		os.Exit(2)
	}
	cfg := reptile.Default()
	cfg.Spec.K = *k
	cfg.Spec.Overlap = *overlap
	cfg.KmerThreshold = uint32(*kmerThr)
	cfg.TileThreshold = uint32(*tileThr)
	cfg.ChunkReads = *chunk
	opts := core.Options{
		Config: cfg,
		Heuristics: core.Heuristics{
			Universal:               *universal,
			RetainReadKmers:         *readKmers || *cache,
			CacheRemote:             *cache,
			ReplicateKmers:          *replKmers,
			ReplicateTiles:          *replTiles,
			BatchReads:              *batch,
			PartialReplicationGroup: *partial,
			LookupBatch:             *lookupBatch,
			LookupWindow:            *lookupWindow,
			Workers:                 *workers,
		},
		LoadBalance: !*noBalance,
		Replicas:    *replicas,
		WorkSteal:   *steal,
	}
	// Both recovery features ride the batched-lookup pipeline; turn it on at
	// a sane default rather than making every invocation spell it out.
	if (*replicas >= 2 || *steal) && opts.Heuristics.LookupBatch == 0 {
		opts.Heuristics.LookupBatch = 16
	}
	if *cacheDir != "" || *snapPath != "" {
		opts.Snapshot = &core.SnapshotOptions{Dir: *cacheDir, Path: *snapPath}
	}
	if err := resolveSnapshotDigest(&opts, *fasta, *qual); err != nil {
		fatal(err)
	}
	if *chaosSpec != "" {
		plan, err := transport.ParsePlan(*chaosSpec, *chaosSeed)
		if err != nil {
			fatal(err)
		}
		opts.Chaos = &plan
	}
	src := &core.FileSource{FastaPath: *fasta, QualPath: *qual}

	start := time.Now()
	switch *transportName {
	case "proc":
		if *stream {
			runStreaming(src, *np, opts, *out, *verbose)
			break
		}
		runProcWithCorrections(src, *np, opts, *out, *corrections, *verbose)
	case "tcp":
		runTCP(src, opts, *rank, strings.Split(*addrs, ","), *deadline, *out, *verbose)
	default:
		fmt.Fprintf(os.Stderr, "reptile-correct: unknown transport %q\n", *transportName)
		os.Exit(2)
	}
	fmt.Printf("total wall time %v\n", time.Since(start).Round(time.Millisecond))
}

// resolveSnapshotDigest fills the cache-mode input digest from the run's
// input files. The digest is content-addressed — touching the files without
// changing their bytes keeps the cache entry valid, editing them invalidates
// it. Explicit prefix mode needs no digest (the path is the identity).
func resolveSnapshotDigest(opts *core.Options, fasta, qual string) error {
	if opts.Snapshot == nil || opts.Snapshot.Dir == "" || opts.Snapshot.InputDigest != "" {
		return nil
	}
	digest, err := snapshot.DigestFiles(fasta, qual)
	if err != nil {
		return fmt.Errorf("hashing input for the snapshot cache: %w", err)
	}
	opts.Snapshot.InputDigest = digest
	return nil
}

func runProc(src core.Source, np int, opts core.Options, out string, verbose bool) {
	runProcWithCorrections(src, np, opts, out, "", verbose)
}

func runProcWithCorrections(src core.Source, np int, opts core.Options, out, correctionsPath string, verbose bool) {
	output, err := core.Run(src, np, opts)
	if err != nil {
		fatal(err)
	}
	corrected := output.Corrected()
	writeOutput(out, corrected)
	if correctionsPath != "" {
		// Re-read the originals to diff against; the engine does not keep
		// them (the corrected copies replaced the shard in place).
		orig, err := readWholeInput(src, np)
		if err != nil {
			fatal(err)
		}
		cs, err := reads.Diff(orig, corrected)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(correctionsPath)
		if err != nil {
			fatal(err)
		}
		if err := reads.WriteCorrections(f, cs); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("corrections list: %s (%d substitutions)\n", correctionsPath, len(cs))
	}
	fmt.Printf("ranks %d | reads %d | bases corrected %d | reads changed %d\n",
		np, output.Result.ReadsProcessed, output.Result.BasesCorrected, output.Result.ReadsChanged)
	// The snapshot probe replaces the build on a hit, so it belongs in the
	// construction total either way.
	fmt.Printf("k-mer construction %v | error correction %v\n",
		(output.Run.Wall[stats.PhaseRead] + output.Run.Wall[stats.PhaseBalance] +
			output.Run.Wall[stats.PhaseSnapshot] +
			output.Run.Wall[stats.PhaseSpectrum] + output.Run.Wall[stats.PhaseExchange]).Round(time.Millisecond),
		output.Run.Wall[stats.PhaseCorrect].Round(time.Millisecond))
	if line := snapshotSummary(output.Run.Ranks); line != "" {
		fmt.Println(line)
	}
	if verbose {
		recovered := make(map[int]bool)
		for _, r := range output.Run.Ranks {
			for _, d := range r.RecoveredRanks {
				recovered[d] = true
			}
		}
		for i, r := range output.Run.Ranks {
			// A crashed-and-recovered rank returned nothing; its counter slot
			// is the zero value, not a real measurement.
			if recovered[i] && r.ReadBases == 0 {
				fmt.Printf("rank %3d: (crashed; shard and reads recovered by peers)\n", i)
				continue
			}
			fmt.Printf("rank %3d: reads=%d kmers=%d tiles=%d remote=%d served=%d corrected=%d faults=%d mem=%.1fMiB\n",
				i, r.ReadsAssigned, r.OwnedKmers, r.OwnedTiles,
				r.TotalRemoteLookups(), r.RequestsServed, r.BasesCorrected,
				r.FaultsInjected, float64(r.PeakMemBytes)/(1<<20))
			if r.BatchesSent > 0 {
				fmt.Printf("          batches=%d ids/batch=%.1f workers=%d\n",
					r.BatchesSent, r.LookupsPerBatch(), r.WorkerCount)
			}
			if line := recoveryLine(r); line != "" {
				fmt.Printf("          recovery: %s\n", line)
			}
			if line := snapshotLine(r); line != "" {
				fmt.Printf("          snapshot: %s\n", line)
			}
			fmt.Printf("          phase-mem: %s\n", phaseMemLine(r))
		}
	}
}

// snapshotSummary condenses the run's cache outcome into one line, empty
// when the run had no snapshot configured.
func snapshotSummary(ranks []stats.Rank) string {
	var hits, misses, saves, read, written int64
	for i := range ranks {
		hits += ranks[i].SnapshotHits
		misses += ranks[i].SnapshotMisses
		saves += ranks[i].SnapshotSaves
		read += ranks[i].SnapshotBytesRead
		written += ranks[i].SnapshotBytesWritten
	}
	switch {
	case hits == 0 && misses == 0:
		return ""
	case misses == 0:
		return fmt.Sprintf("spectrum snapshot: hit on all %d ranks (%.1f MiB loaded, build skipped)",
			hits, float64(read)/(1<<20))
	default:
		return fmt.Sprintf("spectrum snapshot: miss (%d/%d ranks), built and saved %.1f MiB",
			misses, hits+misses, float64(written)/(1<<20))
	}
}

// snapshotLine formats one rank's cache counters for -v, empty when the run
// had no snapshot configured.
func snapshotLine(r stats.Rank) string {
	if r.SnapshotHits == 0 && r.SnapshotMisses == 0 {
		return ""
	}
	return fmt.Sprintf("hits=%d misses=%d saves=%d read=%.1fMiB written=%.1fMiB",
		r.SnapshotHits, r.SnapshotMisses, r.SnapshotSaves,
		float64(r.SnapshotBytesRead)/(1<<20), float64(r.SnapshotBytesWritten)/(1<<20))
}

// phaseMemLine formats the table footprint observed at each pipeline-step
// exit; phases the engine did not run (read/balance under streaming) are
// omitted rather than printed as zero.
func phaseMemLine(r stats.Rank) string {
	var b strings.Builder
	for p := stats.Phase(0); p < stats.NumPhases; p++ {
		if r.PhaseMem[p] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1fMiB", p, float64(r.PhaseMem[p])/(1<<20))
	}
	if b.Len() == 0 {
		return "(none recorded)"
	}
	return b.String()
}

// recoveryLine formats a rank's recovered-fault counters, empty when the
// run saw no failover, re-replication, stealing, or estate work — the
// common case, which should not widen the -v output.
func recoveryLine(r stats.Rank) string {
	if r.FailoversTaken == 0 && r.ShardsRereplicated == 0 && r.ChunksStolen == 0 &&
		r.ChunksLent == 0 && r.ReadsRecovered == 0 && len(r.RecoveredRanks) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "failovers=%d reshards=%d stolen=%d lent=%d estate-reads=%d",
		r.FailoversTaken, r.ShardsRereplicated, r.ChunksStolen, r.ChunksLent, r.ReadsRecovered)
	if len(r.RecoveredRanks) > 0 {
		fmt.Fprintf(&b, " recovered-ranks=%v", r.RecoveredRanks)
	}
	return b.String()
}

func runStreaming(src core.Source, np int, opts core.Options, out string, verbose bool) {
	factory := func(rank int) (core.Sink, error) {
		return core.NewFileSink(fmt.Sprintf("%s.rank%d", out, rank))
	}
	output, err := core.RunStreaming(src, np, opts, factory)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ranks %d (streaming) | reads %d | bases corrected %d | reads changed %d\n",
		np, output.Result.ReadsProcessed, output.Result.BasesCorrected, output.Result.ReadsChanged)
	fmt.Printf("outputs: %s.rank*.fa / .qual\n", out)
	if line := snapshotSummary(output.Run.Ranks); line != "" {
		fmt.Println(line)
	}
	if verbose {
		for _, r := range output.Run.Ranks {
			fmt.Printf("rank %3d: reads=%d remote=%d served=%d corrected=%d peak-mem=%.1fMiB\n",
				r.Rank, r.ReadsAssigned, r.TotalRemoteLookups(), r.RequestsServed,
				r.BasesCorrected, float64(r.PeakMemBytes)/(1<<20))
			fmt.Printf("          phase-mem: %s\n", phaseMemLine(r))
		}
	}
}

func runTCP(src core.Source, opts core.Options, rank int, addrs []string, deadline time.Duration, out string, verbose bool) {
	if len(addrs) < 2 {
		fatal(fmt.Errorf("tcp transport needs -addrs with at least two entries"))
	}
	e, err := transport.NewTCP(transport.TCPConfig{Rank: rank, Addrs: addrs, PeerTimeout: deadline})
	if err != nil {
		fatal(err)
	}
	defer e.Close()
	var conn transport.Conn = e
	if opts.Chaos != nil {
		if err := opts.Chaos.Validate(len(addrs)); err != nil {
			fatal(err)
		}
		conn = transport.NewChaos(e, *opts.Chaos)
	}
	ro, err := core.RunRank(conn, src, opts)
	if err != nil {
		fatal(err)
	}
	writeOutput(fmt.Sprintf("%s.rank%d", out, rank), ro.Corrected)
	fmt.Printf("rank %d: reads=%d corrected=%d remote=%d served=%d\n",
		rank, ro.Stats.ReadsAssigned, ro.Result.BasesCorrected,
		ro.Stats.TotalRemoteLookups(), ro.Stats.RequestsServed)
	if verbose {
		fmt.Printf("rank %d wall: read=%v balance=%v snapshot=%v spectrum=%v exchange=%v correct=%v\n",
			rank, ro.Stats.Wall[stats.PhaseRead], ro.Stats.Wall[stats.PhaseBalance],
			ro.Stats.Wall[stats.PhaseSnapshot],
			ro.Stats.Wall[stats.PhaseSpectrum], ro.Stats.Wall[stats.PhaseExchange],
			ro.Stats.Wall[stats.PhaseCorrect])
		fmt.Printf("rank %d phase-mem: %s\n", rank, phaseMemLine(ro.Stats))
		if line := recoveryLine(ro.Stats); line != "" {
			fmt.Printf("rank %d recovery: %s\n", rank, line)
		}
		if line := snapshotLine(ro.Stats); line != "" {
			fmt.Printf("rank %d snapshot: %s\n", rank, line)
		}
	}
}

// readWholeInput drains every shard of the source (rank by rank) into one
// slice, for the corrections diff.
func readWholeInput(src core.Source, np int) ([]reads.Read, error) {
	var all []reads.Read
	for rank := 0; rank < np; rank++ {
		br, err := src.Open(rank, np, 4096)
		if err != nil {
			return nil, err
		}
		for {
			batch, err := br.NextBatch()
			if err != nil {
				break
			}
			all = append(all, batch...)
		}
		br.Close()
	}
	return all, nil
}

func writeOutput(prefix string, batch []reads.Read) {
	fa, err := os.Create(prefix + ".fa")
	if err != nil {
		fatal(err)
	}
	defer fa.Close()
	if err := fastaio.WriteFasta(fa, batch); err != nil {
		fatal(err)
	}
	qf, err := os.Create(prefix + ".qual")
	if err != nil {
		fatal(err)
	}
	defer qf.Close()
	if err := fastaio.WriteQual(qf, batch); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	var ab *core.AbortError
	if errors.As(err, &ab) {
		fmt.Fprintf(os.Stderr, "reptile-correct: run aborted\n  origin rank: %d\n  phase:       %s\n  cause:       %s\n", ab.Rank, ab.Phase, ab.Cause)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "reptile-correct: %v\n", err)
	os.Exit(1)
}
