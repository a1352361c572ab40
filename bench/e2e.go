package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"reptile/internal/fastaio"
	"reptile/internal/genome"
	"reptile/internal/reads"
	"reptile/internal/serve"
	"reptile/internal/stats"
)

// environment is what every run shares: where the checkout is, where the
// benchmark may write, and the program binaries it built there.
type environment struct {
	ctx        context.Context // bounds every child process of the run; set once the build is done
	root       string          // checkout root (holds BENCHMARK.json and go.mod)
	outDir     string          // bench/out: binaries, work files, traces (git-ignored)
	correctBin string
	serveBin   string
}

// newEnvironment builds reptile-correct and reptile-serve from the checkout's
// source. go build is incremental, so after the first run this costs a
// fraction of a second and can never measure a stale binary.
func newEnvironment(root string) (*environment, error) {
	env := &environment{root: root, outDir: filepath.Join(root, "bench", "out")}
	binDir := filepath.Join(env.outDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/reptile-correct", "./cmd/reptile-serve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the program: %w\n%s", err, out)
	}
	env.correctBin = filepath.Join(binDir, "reptile-correct")
	env.serveBin = filepath.Join(binDir, "reptile-serve")
	return env, nil
}

// workDir returns an empty scratch directory for one run of w.
func (env *environment) workDir(w workload) (string, error) {
	dir := filepath.Join(env.outDir, "work", w.Name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// e2e is the outcome of one end-to-end run.
type e2e struct {
	attempted, failed int64 // reads (batch) or chunks (served)
	setupS            float64
	readsPerS         float64
	latencies         []time.Duration // one per chunk (served) or job (batch)
	rssKB             int64           // batch: peak (median over the jobs); served: resident after the timed region
	acc               genome.Accuracy
	notes             []string
}

// statusKB reads one kB-valued line (VmRSS, VmHWM) of a process's
// /proc status.
func statusKB(pid int, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(b), key+":")
	if !ok {
		return 0, fmt.Errorf("no %s line in /proc status", key)
	}
	var kb int64
	if _, err := fmt.Sscanf(rest, "%d kB", &kb); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", key, err)
	}
	return kb, nil
}

// watchPeak polls a child's peak resident set (VmHWM) until the process is
// gone and returns the last value read. The ru_maxrss that wait4 reports
// cannot be used: Go starts children with vfork, and at exec the kernel folds
// the high-water mark of the address space the child leaves — this process's,
// dataset and all — into the child's own, so every child smaller than the
// benchmark would report the benchmark.
func watchPeak(pid int) int64 {
	var peak int64
	for {
		kb, err := statusKB(pid, "VmHWM")
		if err != nil {
			return peak
		}
		peak = kb
		time.Sleep(20 * time.Millisecond)
	}
}

// runProcs starts every command, waits for all of them, and returns the wall
// time from the first exec to the last exit with the largest peak RSS.
func runProcs(cmds []*exec.Cmd) (time.Duration, int64, error) {
	logs := make([]bytes.Buffer, len(cmds))
	peaks := make([]int64, len(cmds))
	var watch sync.WaitGroup
	start := time.Now()
	var firstErr error
	started := 0
	for i, c := range cmds {
		c.Stdout, c.Stderr = &logs[i], &logs[i]
		if err := c.Start(); err != nil {
			firstErr = err
			break
		}
		started++
		watch.Add(1)
		go func() {
			defer watch.Done()
			peaks[i] = watchPeak(c.Process.Pid)
		}()
	}
	if firstErr != nil {
		for _, c := range cmds[:started] {
			// The group cannot complete without the rank that failed to start.
			if err := c.Process.Kill(); err != nil {
				firstErr = fmt.Errorf("%w; kill: %v", firstErr, err)
			}
		}
	}
	for i, c := range cmds[:started] {
		if err := c.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w\n%s", filepath.Base(c.Path), err, logs[i].String())
		}
	}
	wall := time.Since(start)
	watch.Wait()
	return wall, slices.Max(peaks), firstErr
}

// freeAddrs reserves n loopback addresses by binding port 0 and releasing
// the sockets; the ranks bind them again a moment later.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// engineArgs are the flags both binaries share for workload w on d.
func engineArgs(w workload, d *data) []string {
	args := []string{"-fasta", d.fasta, "-qual", d.qual, "-k", strconv.Itoa(w.Data.K)}
	if w.LookupBatch > 0 {
		args = append(args, "-lookup-batch", strconv.Itoa(w.LookupBatch))
	}
	if w.Workers > 0 {
		args = append(args, "-workers", strconv.Itoa(w.Workers))
	}
	return args
}

// batchJob runs reptile-correct once over d, files in to files out, and
// returns the corrected reads parsed back from the output files.
func batchJob(env *environment, w workload, d *data, dir string) (time.Duration, int64, []reads.Read, error) {
	prefix := filepath.Join(dir, "corrected")
	args := append(engineArgs(w, d), "-out", prefix)
	if w.Cached {
		args = append(args, "-cache-dir", filepath.Join(dir, "cache"))
	}
	var cmds []*exec.Cmd
	var outputs []string
	if w.TCP {
		addrs, err := freeAddrs(w.Ranks)
		if err != nil {
			return 0, 0, nil, err
		}
		for r := 0; r < w.Ranks; r++ {
			rankArgs := append(append([]string{}, args...),
				"-transport", "tcp", "-rank", strconv.Itoa(r), "-addrs", strings.Join(addrs, ","))
			cmds = append(cmds, exec.CommandContext(env.ctx, env.correctBin, rankArgs...))
			outputs = append(outputs, fmt.Sprintf("%s.rank%d", prefix, r))
		}
	} else {
		cmds = []*exec.Cmd{exec.CommandContext(env.ctx, env.correctBin, append(args, "-np", strconv.Itoa(w.Ranks))...)}
		outputs = []string{prefix}
	}
	wall, rss, err := runProcs(cmds)
	if err != nil {
		return 0, 0, nil, err
	}
	var out []reads.Read
	for _, p := range outputs {
		rs, err := fastaio.ReadShard(p+".fa", p+".qual", 0, 1)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("reading the program's output: %w", err)
		}
		out = append(out, rs...)
	}
	return wall, rss, out, nil
}

// runBatch measures a batch workload: the timed region of one job is exec to
// exit of the last rank process, and jobs repeat until seconds have passed
// (at least w.MinReps times).
func runBatch(env *environment, w workload, d *data, chk *checker, seconds float64) (*e2e, error) {
	dir := filepath.Dir(d.fasta)
	res := &e2e{}
	if w.Cached {
		if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
			return nil, err
		}
		// The set-up run misses the cache, builds, and publishes the snapshots
		// every timed run then loads.
		wall, _, out, err := batchJob(env, w, d, dir)
		if err != nil {
			return nil, fmt.Errorf("cache-populating run: %w", err)
		}
		if f := chk.failedReads(out); f > 0 {
			return nil, fmt.Errorf("cache-populating run: %d wrong reads", f)
		}
		res.setupS = wall.Seconds()
	}
	var measured time.Duration
	var peaks []float64 // per job: the largest peak RSS among its processes
	for rep := 0; rep < w.MinReps || measured.Seconds() < seconds; rep++ {
		wall, rss, out, err := batchJob(env, w, d, dir)
		if err != nil {
			return nil, err
		}
		measured += wall
		res.latencies = append(res.latencies, wall)
		peaks = append(peaks, float64(rss))
		res.attempted += int64(len(d.ds.Reads))
		res.failed += chk.failedReads(out)
		if rep == 0 {
			acc, err := d.ds.Evaluate(out)
			if err != nil {
				res.failed = res.attempted
				res.notes = append(res.notes, "scoring failed: "+err.Error())
			}
			res.acc = acc
		}
	}
	res.readsPerS = float64(len(d.ds.Reads)) / stats.Percentile(res.latencies, 50).Seconds()
	res.rssKB = int64(median(peaks))
	return res, nil
}

// server is a resident reptile-serve child.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  bytes.Buffer // everything the child printed; read only after wait
	pump sync.WaitGroup
}

// startServer execs reptile-serve and waits for its front door. The returned
// duration is exec to the "listening on" line: the program's whole set-up
// (parse, build or snapshot load, freeze, arm).
func startServer(env *environment, w workload, d *data) (*server, time.Duration, error) {
	args := append(engineArgs(w, d), "-np", strconv.Itoa(w.Ranks), "-addr", "127.0.0.1:0")
	s := &server{cmd: exec.CommandContext(env.ctx, env.serveBin, args...)}
	stdout, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	s.cmd.Stderr = s.cmd.Stdout // one pipe, so only the pump writes s.log
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	ready := make(chan string, 1)
	s.pump.Add(1)
	go func() {
		defer s.pump.Done()
		defer close(ready)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			s.log.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "listening on "); ok && s.addr == "" {
				s.addr = strings.Fields(rest)[0]
				ready <- s.addr
			}
		}
	}()
	if _, ok := <-ready; !ok {
		s.pump.Wait()
		err := s.cmd.Wait()
		return nil, 0, fmt.Errorf("reptile-serve exited before listening: %v\n%s", err, s.log.String())
	}
	return s, time.Since(start), nil
}

// stop drains the server with SIGINT and waits for it.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	s.pump.Wait()
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("reptile-serve: %w\n%s", err, s.log.String())
	}
	return nil
}

// clientRun is what one closed-loop connection observed.
type clientRun struct {
	latencies         []time.Duration
	first, last       time.Time // measured window: first send to last answer
	reads             int
	attempted, failed int64
	firstPass         [][]reads.Read // each read's first answer, for scoring
	err               error
}

// driveClient is one closed-loop client: it walks the chunks c, c+stride,
// ... of the dataset round and round, sending the next chunk only after the
// previous answer, until the deadline. Answers are checked between requests,
// outside the latency window.
func driveClient(addr string, w workload, d *data, chk *checker, c int, seconds float64) (cr clientRun) {
	all := d.ds.Reads
	chunks := (len(all) + w.ChunkReads - 1) / w.ChunkReads
	// fail counts an operation outside the measured chunks (dial, open, a
	// warm-up chunk, close) that went wrong: it fails the run all the same.
	fail := func(err error) clientRun {
		cr.attempted++
		cr.failed++
		cr.err = err
		return cr
	}
	cl, err := serve.Dial(addr)
	if err != nil {
		return fail(err)
	}
	defer cl.Close()
	if err := cl.Open(fmt.Sprintf("client-%d", c)); err != nil {
		return fail(err)
	}
	var deadline time.Time
	for n, i := 0, c; ; n, i = n+1, i+w.Clients {
		if i >= chunks {
			i %= w.Clients
		}
		if n == w.WarmupChunks {
			cr.first = time.Now()
			deadline = cr.first.Add(time.Duration(seconds * float64(time.Second)))
		}
		lo, hi := i*w.ChunkReads, (i+1)*w.ChunkReads
		if hi > len(all) {
			hi = len(all)
		}
		t0 := time.Now()
		out, _, err := cl.Correct(all[lo:hi])
		t1 := time.Now()
		measured := n >= w.WarmupChunks
		if measured {
			cr.attempted++
			cr.latencies = append(cr.latencies, t1.Sub(t0))
			cr.reads += hi - lo
			cr.last = t1
		}
		bad := err != nil || len(out) != hi-lo
		for j := range out {
			if !bad && (out[j].Seq != all[lo+j].Seq || !chk.ok(&out[j])) {
				bad = true
			}
		}
		if bad && measured {
			cr.failed++
		}
		if err != nil {
			// A rejected or failed chunk ends the session.
			if measured {
				cr.err = err
				return cr
			}
			return fail(err)
		}
		if n < (chunks-c+w.Clients-1)/w.Clients {
			cr.firstPass = append(cr.firstPass, out)
		}
		if measured && !t1.Before(deadline) {
			break
		}
	}
	if err := cl.CloseSession(); err != nil {
		return fail(err)
	}
	return cr
}

// runServed measures a served workload against a resident reptile-serve.
func runServed(env *environment, w workload, d *data, chk *checker, seconds float64) (*e2e, error) {
	srv, setup, err := startServer(env, w, d)
	if err != nil {
		return nil, err
	}
	res := &e2e{setupS: setup.Seconds()}
	runs := make([]clientRun, w.Clients)
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runs[c] = driveClient(srv.addr, w, d, chk, c, seconds)
		}(c)
	}
	wg.Wait()
	// What the resident service holds while serving. Its peak is reached
	// during the build and swings +-15% with GC pacing from run to run, so
	// it is noted, not reported as the metric.
	pid := srv.cmd.Process.Pid
	resident, rerr := statusKB(pid, "VmRSS")
	peak, perr := statusKB(pid, "VmHWM")
	if err := errors.Join(rerr, perr, srv.stop()); err != nil {
		return nil, err
	}
	res.rssKB = resident
	res.notes = append(res.notes, fmt.Sprintf("server peak RSS %.1f MiB, resident at the end of the timed region %.1f MiB", float64(peak)/1024, float64(resident)/1024))

	var first, last time.Time
	reads := 0
	for c, cr := range runs {
		if cr.err != nil {
			res.notes = append(res.notes, fmt.Sprintf("client %d: %v", c, cr.err))
		}
		res.attempted += cr.attempted
		res.failed += cr.failed
		res.latencies = append(res.latencies, cr.latencies...)
		reads += cr.reads
		if first.IsZero() || (!cr.first.IsZero() && cr.first.Before(first)) {
			first = cr.first
		}
		if cr.last.After(last) {
			last = cr.last
		}
		for _, chunk := range cr.firstPass {
			acc, err := d.ds.Evaluate(chunk)
			if err != nil {
				res.failed++
				res.notes = append(res.notes, "scoring failed: "+err.Error())
			}
			res.acc.Add(acc)
		}
	}
	if window := last.Sub(first).Seconds(); window > 0 {
		res.readsPerS = float64(reads) / window
	}
	return res, nil
}
