package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// benchmarkFile is the root BENCHMARK.json, the contract this benchmark is
// run under.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// runChild runs one workload in a fresh process of this same binary, so no
// heap or page-cache state of one run leaks into the next, and returns the
// result line it printed last.
func runChild(name string, seed int64, seconds float64, trace int, echo io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, errors.Join(fmt.Errorf("%s printed no result line: %w", name, err), runErr)
	}
	return res, runErr
}

// runAll runs every workload once and prints one summary.
func runAll(root string, seed int64, seconds float64, trace int) error {
	var failed []string
	for _, w := range workloads {
		fmt.Printf("\n=== %s ===\n", w.Name)
		if _, err := runChild(w.Name, seed, seconds, trace, os.Stdout); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.Name, err))
		}
	}
	if len(failed) > 0 {
		return errors.New(strings.Join(failed, "; "))
	}
	return nil
}

// quartiles returns what Python's statistics.quantiles(values, n=4) returns.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	const n = 4
	m := len(x) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(x)-1 {
			j = len(x) - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (x[j-1]*(n-delta) + x[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

func median(values []float64) float64 {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	if len(x)%2 == 1 {
		return x[len(x)/2]
	}
	return (x[len(x)/2-1] + x[len(x)/2]) / 2
}

// calibration is one metric of one workload across the two sets.
type calibration struct {
	MedianA float64 `json:"median_a"`
	MedianB float64 `json:"median_b"`
	SpreadA float64 `json:"spread_a"` // (q3-q1)/median of set A
	SpreadB float64 `json:"spread_b"`
	Drift   float64 `json:"drift"` // how much worse B's median is than A's, as a share of A's
	Bound   float64 `json:"bound"`
	OK      bool    `json:"ok"`
}

// aaRuns is how many runs, each with another seed, one set makes of one
// workload: the number the driver makes.
const aaRuns = 10

// runAA runs the end-to-end set twice on this tree, each set with the same
// aaRuns seeds, and holds every metric's spread and drift against its
// bound. It then runs the traced set twice on one seed and requires the
// exact-count layer metrics to repeat bit for bit.
func runAA(root string, seed int64, seconds float64) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	// values[workload][metric][set] are the runs' values in seed order.
	values := make(map[string]map[string]*[2][]float64)
	var problems []string
	for _, w := range workloads {
		values[w.Name] = make(map[string]*[2][]float64)
		for _, m := range bf.EndToEnd {
			values[w.Name][m.Name] = &[2][]float64{}
		}
		for set := 0; set < 2; set++ {
			for i := 0; i < aaRuns; i++ {
				res, err := runChild(w.Name, seed+int64(i), seconds, 0, io.Discard)
				if err != nil || res.Failed != 0 {
					problems = append(problems, fmt.Sprintf("%s set %c seed %d: failed %d of %d: %v", w.Name, 'A'+set, seed+int64(i), res.Failed, res.Attempted, err))
					continue
				}
				for _, m := range bf.EndToEnd {
					v := values[w.Name][m.Name]
					v[set] = append(v[set], res.Metrics[m.Name].Value)
				}
				fmt.Printf("%s set %c seed %d: %.0f reads/s\n", w.Name, 'A'+set, seed+int64(i), res.Metrics["reads_per_s"].Value)
			}
		}
	}
	if len(problems) > 0 {
		return errors.New(strings.Join(problems, "\n"))
	}

	table := make(map[string]map[string]calibration)
	maxSpread := make(map[string]float64) // per metric, the widest spread on any workload: bounds are set to >= 3x this
	fmt.Printf("\n%-22s %-14s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "drift", "bound")
	for _, w := range workloads {
		table[w.Name] = make(map[string]calibration)
		for _, m := range bf.EndToEnd {
			v := values[w.Name][m.Name]
			c := calibration{MedianA: median(v[0]), MedianB: median(v[1]), Bound: m.Bound}
			for set, spread := range []*float64{&c.SpreadA, &c.SpreadB} {
				q1, _, q3 := quartiles(v[set])
				*spread = (q3 - q1) / median(v[set])
			}
			c.Drift = (c.MedianB - c.MedianA) / c.MedianA
			if m.Better == "higher" {
				c.Drift = -c.Drift
			}
			c.OK = c.Drift <= m.Bound && c.SpreadA <= m.Bound && c.SpreadB <= m.Bound
			if m.Name == "gain" {
				// One seed, one tree: the corrections are the same reads.
				for i := range v[0] {
					if v[0][i] != v[1][i] {
						c.OK = false
						problems = append(problems, fmt.Sprintf("%s: gain of seed %d differs between the sets", w.Name, seed+int64(i)))
					}
				}
			}
			if !c.OK {
				problems = append(problems, fmt.Sprintf("%s %s: spread %.4f/%.4f, drift %.4f against bound %.4f", w.Name, m.Name, c.SpreadA, c.SpreadB, c.Drift, m.Bound))
			}
			table[w.Name][m.Name] = c
			maxSpread[m.Name] = max(maxSpread[m.Name], c.SpreadA, c.SpreadB)
			fmt.Printf("%-22s %-14s %12.4f %12.4f %8.4f %8.4f %8.4f %6.3f\n", w.Name, m.Name, c.MedianA, c.MedianB, c.SpreadA, c.SpreadB, c.Drift, m.Bound)
		}
	}

	for _, w := range workloads {
		a, errA := runChild(w.Name, seed, seconds, 1, io.Discard)
		b, errB := runChild(w.Name, seed, seconds, 1, io.Discard)
		if err := errors.Join(errA, errB); err != nil {
			problems = append(problems, fmt.Sprintf("%s traced: %v", w.Name, err))
			continue
		}
		for _, name := range exactLayerMetrics(w) {
			if a.Metrics[name].Value != b.Metrics[name].Value {
				problems = append(problems, fmt.Sprintf("%s: exact count %s read %v then %v", w.Name, name, a.Metrics[name].Value, b.Metrics[name].Value))
			}
		}
		fmt.Printf("%s: exact layer counts compared\n", w.Name)
	}

	host := recordHost(root, seed, 1)
	summary := struct {
		Time      string                            `json:"time"`
		Host      hostRecord                        `json:"host"`
		Runs      int                               `json:"runs_per_set"`
		Seconds   float64                           `json:"seconds"`
		Claim     *string                           `json:"claim"`
		MaxSpread map[string]float64                `json:"max_spread"`
		Workloads map[string]map[string]calibration `json:"workloads"`
	}{time.Now().UTC().Format(time.RFC3339), host, aaRuns, seconds, nil, maxSpread, table}
	pretty, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(root, "bench", "CALIBRATION.json"), append(pretty, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	if err := appendLine(filepath.Join(root, "bench", "history.jsonl"), line); err != nil {
		return err
	}
	if len(problems) > 0 {
		return errors.New("A/A failed:\n" + strings.Join(problems, "\n"))
	}
	fmt.Println("A/A: every spread and drift is within its bound")
	return nil
}
