// Command reptile-serve runs the resident correction service (DESIGN.md
// §17): it builds — or warm-loads from the spectrum-snapshot cache — the
// frozen spectra once, keeps the rank group armed, and serves any number of
// correction sessions over a TCP front door until drained.
//
// Server, in-process ranks:
//
//	reptile-serve -fasta ecoli.fa -qual ecoli.qual -np 4 -addr 127.0.0.1:7311
//
// Server, one process per rank (rank 0 is the front door):
//
//	reptile-serve -transport tcp -rank 0 -addrs h0:9000,h1:9000 -fasta ... -addr 0.0.0.0:7311
//	reptile-serve -transport tcp -rank 1 -addrs h0:9000,h1:9000 -fasta ...
//
// Client (corrects a fasta/qual pair through a running server):
//
//	reptile-serve -client -addr 127.0.0.1:7311 -fasta job.fa -qual job.qual -out fixed
//
// SIGINT/SIGTERM drains gracefully: in-flight sessions complete, new opens
// are rejected with the typed draining error, and the per-session service
// statistics (reads/sec, p50/p99 session latency) print at exit.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"reptile/internal/config"
	"reptile/internal/core"
	"reptile/internal/fastaio"
	"reptile/internal/reads"
	"reptile/internal/reptile"
	"reptile/internal/serve"
	"reptile/internal/snapshot"
	"reptile/internal/stats"
	"reptile/internal/transport"
)

func main() {
	var (
		configPath = flag.String("config", "", "configuration file (overrides the other flags)")
		dumpConfig = flag.Bool("dump-config", false, "print the default configuration file and exit")

		fasta = flag.String("fasta", "", "input fasta file")
		qual  = flag.String("qual", "", "input quality file")
		np    = flag.Int("np", 4, "number of ranks (proc transport)")

		addr         = flag.String("addr", "127.0.0.1:7311", "front-door listen address (serve_addr); port 0 picks a free port")
		maxSessions  = flag.Int("max-sessions", 0, "per-tenant in-flight session cap at each executor rank (serve_max_sessions; 0 = default)")
		tenantWindow = flag.Int("tenant-window", 0, "in-flight chunks per session (serve_tenant_window; 0 = default)")

		k            = flag.Int("k", 12, "k-mer length")
		overlap      = flag.Int("overlap", 4, "tile overlap bases")
		kmerThr      = flag.Uint("kmer-threshold", 6, "k-mer solidity threshold")
		tileThr      = flag.Uint("tile-threshold", 3, "tile solidity threshold")
		chunk        = flag.Int("chunk", 4096, "reads per chunk (and per client frame in -client mode)")
		noBal        = flag.Bool("no-balance", false, "disable static load balancing")
		universal    = flag.Bool("universal", false, "universal message kind encoding")
		lookupBatch  = flag.Int("lookup-batch", 0, "batch remote lookups into frames of up to this many ids and correct each chunk in waves (0 = off)")
		lookupWindow = flag.Int("lookup-window", 0, "in-flight batch frames per peer (0 = the default of 64 when -lookup-batch is on)")
		workers      = flag.Int("workers", 0, "worker goroutines per rank (>1 requires -lookup-batch)")

		cacheDir = flag.String("cache-dir", "", "spectrum-snapshot cache directory: a hit warm-loads the frozen spectra and skips construction")
		snapPath = flag.String("snapshot", "", "explicit spectrum-snapshot prefix (mutually exclusive with -cache-dir)")

		transportName = flag.String("transport", "proc", "proc (goroutine ranks) or tcp (one process per rank; rank 0 is the front door)")
		rank          = flag.Int("rank", 0, "this process's rank (tcp transport)")
		addrs         = flag.String("addrs", "", "comma-separated rank addresses (tcp transport)")
		deadline      = flag.Duration("deadline", 0, "peer-failure detection window (tcp transport); 0 disables")

		client  = flag.Bool("client", false, "client mode: correct -fasta/-qual through the server at -addr and write -out")
		tenant  = flag.String("tenant", "default", "tenant name for admission control (client mode)")
		out     = flag.String("out", "corrected", "output file prefix (client mode)")
		verbose = flag.Bool("v", false, "print per-rank statistics at drain")
	)
	flag.Parse()

	if *dumpConfig {
		fmt.Print(config.Default().Render())
		return
	}
	if *client {
		if *fasta == "" || *qual == "" {
			fmt.Fprintln(os.Stderr, "reptile-serve: -client needs -fasta and -qual")
			os.Exit(2)
		}
		runClient(*addr, *tenant, *fasta, *qual, *out, *chunk)
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
		listen := *addr
		if settings.Options.Serve != nil && settings.Options.Serve.Addr != "" {
			listen = settings.Options.Serve.Addr
		}
		src := &core.FileSource{FastaPath: settings.FastaPath, QualPath: settings.QualPath}
		if err := resolveSnapshotDigest(&settings.Options, settings.FastaPath, settings.QualPath); err != nil {
			fatal(err)
		}
		runServeProc(src, settings.Ranks, settings.Options, listen, *verbose)
		return
	}

	if *fasta == "" || *qual == "" {
		fmt.Fprintln(os.Stderr, "reptile-serve: -fasta and -qual are required")
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
			Universal:    *universal,
			LookupBatch:  *lookupBatch,
			LookupWindow: *lookupWindow,
			Workers:      *workers,
		},
		LoadBalance: !*noBal,
		Serve:       &core.ServeOptions{Addr: *addr, MaxSessions: *maxSessions, TenantWindow: *tenantWindow},
	}
	if *cacheDir != "" || *snapPath != "" {
		opts.Snapshot = &core.SnapshotOptions{Dir: *cacheDir, Path: *snapPath}
	}
	if err := resolveSnapshotDigest(&opts, *fasta, *qual); err != nil {
		fatal(err)
	}
	src := &core.FileSource{FastaPath: *fasta, QualPath: *qual}

	switch *transportName {
	case "proc":
		runServeProc(src, *np, opts, *addr, *verbose)
	case "tcp":
		runServeTCP(src, opts, *rank, strings.Split(*addrs, ","), *deadline, *addr, *verbose)
	default:
		fmt.Fprintf(os.Stderr, "reptile-serve: unknown transport %q\n", *transportName)
		os.Exit(2)
	}
}

// resolveSnapshotDigest fills the cache-mode input digest from the run's
// input files, exactly as reptile-correct does: content-addressed, so only
// byte changes invalidate the cache entry.
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

// runServeProc runs the whole rank group as goroutines in this process:
// rank 0 is the front door, the others are pure executors serving until the
// drain.
func runServeProc(src core.Source, np int, opts core.Options, addr string, verbose bool) {
	eps, err := transport.NewProcGroup(np)
	if err != nil {
		fatal(err)
	}
	defer transport.CloseGroup(eps)
	outs := make([]*core.RankOutput, np)
	errs := make([]error, np)
	var wg sync.WaitGroup
	for r := 1; r < np; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			svc, err := core.StartService(eps[r], src, opts)
			if err != nil {
				errs[r] = err
				return
			}
			outs[r], errs[r] = svc.ServeExecutor()
		}(r)
	}
	svc, err := core.StartService(eps[0], src, opts)
	if err != nil {
		// Unblock the executor ranks (their collectives error on the closed
		// group) before reporting.
		// reptile-lint:allow errorflow the start failure being reported is the interesting error; this close exists to unblock the group
		transport.CloseGroup(eps)
		wg.Wait()
		fatal(err)
	}
	outs[0], errs[0] = frontDoor(svc, addr, verbose)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			fatal(fmt.Errorf("rank %d: %w", r, err))
		}
	}
	var total reptile.Result
	for r, ro := range outs {
		total.Add(ro.Result)
		if verbose {
			printRank(r, ro)
		}
	}
	fmt.Printf("ranks %d | reads corrected %d | bases corrected %d | reads changed %d\n",
		np, total.ReadsProcessed, total.BasesCorrected, total.ReadsChanged)
}

// runServeTCP runs one rank of a cross-process group: rank 0 is the front
// door, every other rank a pure executor.
func runServeTCP(src core.Source, opts core.Options, rank int, addrs []string, deadline time.Duration, addr string, verbose bool) {
	if len(addrs) < 2 {
		fatal(fmt.Errorf("tcp transport needs -addrs with at least two entries"))
	}
	e, err := transport.NewTCP(transport.TCPConfig{Rank: rank, Addrs: addrs, PeerTimeout: deadline})
	if err != nil {
		fatal(err)
	}
	defer e.Close()
	svc, err := core.StartService(e, src, opts)
	if err != nil {
		fatal(err)
	}
	var ro *core.RankOutput
	if rank == 0 {
		ro, err = frontDoor(svc, addr, verbose)
	} else {
		fmt.Printf("reptile-serve: rank %d resident, serving until the front door drains\n", rank)
		ro, err = svc.ServeExecutor()
	}
	if err != nil {
		fatal(err)
	}
	printRank(rank, ro)
}

// frontDoor opens the client listener on the coordinator rank's service,
// waits for SIGINT/SIGTERM, then drains: the listener stops accepting,
// connected clients finish (a second signal force-closes them), sessions
// complete, and the group quiesces together.
func frontDoor(svc *core.SpectrumService, addr string, verbose bool) (*core.RankOutput, error) {
	srv, err := serve.Listen(addr, svc)
	if err != nil {
		// The executor ranks are resident and waiting; drain the group before
		// reporting the listen failure so nothing hangs.
		if _, derr := svc.Drain(); derr != nil {
			err = errors.Join(err, derr)
		}
		return nil, err
	}
	fmt.Printf("reptile-serve: %d ranks resident, listening on %s (Ctrl-C to drain)\n", svc.Size(), srv.Addr())
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("reptile-serve: draining — in-flight sessions complete, new opens are rejected (Ctrl-C again to force)")
	forced := make(chan struct{})
	go func() {
		select {
		case <-sig:
			srv.Close()
		case <-forced:
		}
	}()
	srv.Shutdown()
	close(forced)
	sv := svc.Stats()
	out, err := svc.Drain()
	fmt.Printf("served: sessions=%d rejected=%d reads=%d (%.0f reads/s) p50=%v p99=%v window=%v\n",
		sv.Sessions, sv.Rejected, sv.Reads, sv.ReadsPerSec,
		sv.P50.Round(time.Microsecond), sv.P99.Round(time.Microsecond),
		sv.Elapsed.Round(time.Millisecond))
	return out, err
}

// printRank prints one rank's executor-side session counters and walls.
func printRank(r int, ro *core.RankOutput) {
	st := ro.Stats
	fmt.Printf("rank %d: sessions opened=%d completed=%d rejected=%d | session reads=%d | bases corrected=%d | served=%d\n",
		r, st.SessionsOpened, st.SessionsCompleted, st.SessionsRejected,
		st.SessionReads, ro.Result.BasesCorrected, st.RequestsServed)
	fmt.Printf("rank %d wall: read=%v balance=%v snapshot=%v spectrum=%v exchange=%v correct=%v\n",
		r, st.Wall[stats.PhaseRead], st.Wall[stats.PhaseBalance], st.Wall[stats.PhaseSnapshot],
		st.Wall[stats.PhaseSpectrum], st.Wall[stats.PhaseExchange], st.Wall[stats.PhaseCorrect])
}

// runClient corrects one fasta/qual pair through a running server: open a
// session, stream the reads in chunks, write the corrected pair, close.
// The CloseSession acknowledgment means every read written here was durably
// accepted by the service before this process exits.
func runClient(addr, tenant, fasta, qual, out string, chunk int) {
	src := &core.FileSource{FastaPath: fasta, QualPath: qual}
	all, err := readWholeInput(src)
	if err != nil {
		fatal(err)
	}
	if chunk <= 0 {
		chunk = 4096
	}
	cl, err := serve.Dial(addr)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	if err := cl.Open(tenant); err != nil {
		fatal(err)
	}
	start := time.Now()
	corrected := make([]reads.Read, 0, len(all))
	var total reptile.Result
	for lo := 0; lo < len(all); lo += chunk {
		hi := lo + chunk
		if hi > len(all) {
			hi = len(all)
		}
		rs, res, err := cl.Correct(all[lo:hi])
		if err != nil {
			fatal(err)
		}
		corrected = append(corrected, rs...)
		total.Add(res)
	}
	if err := cl.CloseSession(); err != nil {
		fatal(err)
	}
	writeOutput(out, corrected)
	fmt.Printf("client: reads %d | bases corrected %d | reads changed %d | %v\n",
		total.ReadsProcessed, total.BasesCorrected, total.ReadsChanged,
		time.Since(start).Round(time.Millisecond))
}

// readWholeInput drains the whole source as one rank's shard.
func readWholeInput(src core.Source) ([]reads.Read, error) {
	br, err := src.Open(0, 1, 4096)
	if err != nil {
		return nil, err
	}
	defer br.Close()
	var all []reads.Read
	for {
		batch, err := br.NextBatch()
		if err != nil {
			break
		}
		all = append(all, batch...)
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
		fmt.Fprintf(os.Stderr, "reptile-serve: run aborted\n  origin rank: %d\n  phase:       %s\n  cause:       %s\n", ab.Rank, ab.Phase, ab.Cause)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "reptile-serve: %v\n", err)
	os.Exit(1)
}
