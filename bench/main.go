// Command bench is the repository's benchmark: one command that drives the
// built reptile-correct and reptile-serve binaries over generated inputs,
// prints named end-to-end metrics, checks the outputs, and — in a separate
// traced run — times every layer from outside. See README.md.
//
//	go run -C bench . --workload serve_local_large --seed 11 --seconds 8 --trace 0
//	go run -C bench .            # every workload, end to end
//	go run -C bench . -trace 1   # every workload, per-layer table
//	go run -C bench . -aa        # A/A calibration against the bounds
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"reptile/internal/stats"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints, exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childBudget bounds every process a single-workload run starts, below the
// 180 s a run may take.
const childBudget = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 11, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 8, "how long the timed region measures")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		aa      = flag.Bool("aa", false, "A/A calibration: two sets of runs of this tree, spreads and drift against the bounds")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	switch {
	case *aa:
		err = runAA(root, *seed, *seconds)
	case *name == "all":
		err = runAll(root, *seed, *seconds, *trace)
	default:
		err = runOne(root, *name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

// errIncorrect is a run whose outputs were wrong. The result line is still
// printed; the exit status is what tells a caller.
var errIncorrect = errors.New("outputs incorrect")

// runOne runs one workload once and prints its result line last.
func runOne(root, name string, seed int64, seconds float64, traced bool) error {
	res, err := measure(root, name, seed, seconds, traced, false)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measure builds the program, generates the workload's inputs from seed and
// runs it once, end to end or traced. isTiny is the self-test's: every
// dataset shrunk 80x, where the numbers mean nothing.
func measure(root, name string, seed int64, seconds float64, traced, isTiny bool) (result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return result{}, err
	}
	if isTiny {
		w = tiny(w)
	}
	host := recordHost(root, seed, w.Ranks)
	if !host.Armed {
		return result{}, fmt.Errorf("unarmed: GOMAXPROCS=%d is below the workload's %d ranks", host.GOMAXPROCS, w.Ranks)
	}
	env, err := newEnvironment(root)
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childBudget)
	defer cancel()
	env.ctx = ctx

	dir, err := env.workDir(w)
	if err != nil {
		return result{}, err
	}
	tr := newTracer(w.Name)
	d, err := makeData(w.Data, seed, dir)
	if err != nil {
		return result{}, err
	}
	generate := time.Duration(d.generateS * float64(time.Second))
	tr.add("genome.generate", -1, tr.epoch, generate)
	tr.add("fastaio.write_dataset", -1, tr.epoch.Add(generate), time.Duration(d.writeS*float64(time.Second)))
	host.Dataset = fmt.Sprintf("%s: %d bp genome, %gX, %d reads of %d, k=%d",
		w.Data.Name, w.Data.GenomeLen, w.Data.Coverage, len(d.ds.Reads), w.Data.ReadLen, w.Data.K)

	var res result
	if traced {
		res, err = tracedRun(env, w, d, dir, tr, !isTiny)
	} else {
		res, err = endToEndRun(env, w, d, seconds)
	}
	if err != nil {
		return result{}, err
	}
	res.Correct = res.Failed == 0
	printHuman(w, host, res)
	return res, appendHistory(env, w, host, traced, res)
}

// endToEndRun measures w with no spans anywhere and checks every output.
func endToEndRun(env *environment, w workload, d *data, seconds float64) (result, error) {
	// Byte-identity with the sequential corrector, computed afresh in every
	// run before anything is timed. The two large workloads, each equal to
	// it, are equal to each other: the repo's cross-mode invariant.
	want, err := sequentialReference(d)
	if err != nil {
		return result{}, err
	}
	chk := &checker{ds: d.ds, want: want}
	// The reference's tables (over 1 GB on large) go back to the OS first.
	debug.FreeOSMemory()

	measureFn := runBatch
	if w.Served {
		measureFn = runServed
	}
	run, err := measureFn(env, w, d, chk, seconds)
	if err != nil {
		return result{}, err
	}
	// The simulator's truth is the check no reference can fake: a corrector
	// that damages reads scores a gain near or below zero.
	gain := run.acc.Gain()
	if gain < 0.5 {
		run.failed = run.attempted
		run.notes = append(run.notes, fmt.Sprintf("gain %.4f is below the 0.5 floor", gain))
	}
	if run.setupS == 0 {
		// batch_cold_large: the program has no set-up, every run pays the
		// build inside the timed region. What precedes it is the benchmark
		// preparing the input files.
		run.setupS = d.generateS + d.writeS + d.syncS
	}
	fmt.Println("checked against: the sequential corrector, every read")
	fmt.Printf("samples: %d timed operations (%s)\n", len(run.latencies), map[bool]string{true: "chunks", false: "whole jobs"}[w.Served])
	for _, n := range run.notes {
		fmt.Println("note:", n)
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return result{Attempted: run.attempted, Failed: run.failed, Metrics: map[string]metric{
		"reads_per_s":  {run.readsPerS, "reads/s"},
		"chunk_p50_ms": {ms(stats.Percentile(run.latencies, 50)), "ms"},
		"chunk_p95_ms": {ms(stats.Percentile(run.latencies, 95)), "ms"},
		"rss_mb":       {float64(run.rssKB) / 1024, "MiB"},
		"gain":         {gain, "fraction"},
		"setup_s":      {run.setupS, "s"},
	}}, nil
}

// tracedRun produces the per-layer metrics and the span file.
func tracedRun(env *environment, w workload, d *data, dir string, tr *tracer, strict bool) (result, error) {
	lr, err := traceWorkload(w, d, dir, tr)
	if err != nil {
		return result{}, err
	}
	path, err := tr.dump(env.outDir)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	self := tr.selfSeconds()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Println("self time by span (span minus its children):")
	for _, name := range names {
		fmt.Printf("  %-24s %9.3f s\n", name, self[name])
	}
	res := result{Attempted: lr.checks, Failed: lr.failed, Metrics: make(map[string]metric)}
	for _, lm := range layerMetrics {
		res.Metrics[lm.Name] = metric{Value: lr.m[lm.Name], Unit: lm.Unit}
	}
	// Tiny phases last milliseconds and overlap across ranks by as much; the
	// accounting check only means something at full size.
	if r := lr.m["core.phase_sum_over_wall"]; strict && (r < 0.90 || r > 1.05) {
		return res, fmt.Errorf("core.phase_sum_over_wall = %.3f is outside [0.90, 1.05]: the phase walls do not account for the run", r)
	}
	return res, nil
}

// printHuman prints the host record and the metrics as a table; the JSON
// result line follows it.
func printHuman(w workload, host hostRecord, res result) {
	h, err := json.Marshal(host)
	if err == nil {
		fmt.Printf("host: %s\n", h)
	}
	if llc := host.llcBytes(); llc > 0 && w.Data.Name == "large" {
		fmt.Printf("large spectrum: sized for 192 MiB frozen tables against a %d MiB last-level cache (spectrum.table_mb in the traced run is the measured size)\n", llc>>20)
	}
	fmt.Printf("workload %s: attempted %d, failed %d\n", w.Name, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// appendHistory adds the run's one-line summary to out/history.jsonl.
func appendHistory(env *environment, w workload, host hostRecord, traced bool, res result) error {
	line, err := json.Marshal(struct {
		Time     string     `json:"time"`
		Workload string     `json:"workload"`
		Traced   bool       `json:"traced"`
		Host     hostRecord `json:"host"`
		Result   result     `json:"result"`
		Claim    *string    `json:"claim"`
	}{time.Now().UTC().Format(time.RFC3339), w.Name, traced, host, res, nil})
	if err != nil {
		return err
	}
	return appendLine(filepath.Join(env.outDir, "history.jsonl"), line)
}

// appendLine adds one line to a JSON-lines file.
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
