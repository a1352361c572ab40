package main

import (
	"math"
	"regexp"
	"testing"

	"reptile/internal/dna"
	"reptile/internal/genome"
)

// TestSelf runs every workload named in BENCHMARK.json at tiny scale, end to
// end and traced, and holds the output to the contract: every declared
// metric is emitted with its declared unit and nothing else is, names fit
// the grammar, outputs verify, and the exact-count layer metrics repeat bit
// for bit across two traced runs.
func TestSelf(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	grammar := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	endToEnd := make(map[string]string)
	for _, m := range bf.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayer := make(map[string]string)
	for _, m := range bf.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, name := range exactLayerMetrics(w) {
			if _, ok := perLayer[name]; !ok {
				t.Errorf("exact-count metric %s is not declared in BENCHMARK.json", name)
			}
		}
	}
	check := func(t *testing.T, res result, declared map[string]string) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
		}
		for name, unit := range declared {
			m, ok := res.Metrics[name]
			if !ok {
				t.Errorf("declared metric %s was not emitted", name)
			} else if m.Unit != unit {
				t.Errorf("%s emitted in %q, declared in %q", name, m.Unit, unit)
			}
			if !grammar.MatchString(name) {
				t.Errorf("metric name %q is outside the grammar", name)
			}
		}
		for name, m := range res.Metrics {
			if _, ok := declared[name]; !ok {
				t.Errorf("emitted metric %s is not declared", name)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s = %v", name, m.Value)
			}
		}
	}
	for _, declared := range bf.Workloads {
		w := declared.Name
		t.Run(w, func(t *testing.T) {
			if !grammar.MatchString(w) {
				t.Errorf("workload name %q is outside the grammar", w)
			}
			res, err := measure(root, w, 5, 0.2, false, true)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v must never be 0", name, m.Value)
				}
			}
			a, err := measure(root, w, 5, 0.2, true, true)
			if err != nil {
				t.Fatal(err)
			}
			check(t, a, perLayer)
			b, err := measure(root, w, 5, 0.2, true, true)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := findWorkload(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range exactLayerMetrics(wl) {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("exact count %s read %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

// TestCorruptedOutputFails: one flipped base, one damaged quality, one lost
// read and one duplicated read must each be counted.
func TestCorruptedOutputFails(t *testing.T) {
	ds := genome.Preset{Name: "t", GenomeLen: 2000, ReadLen: 60, Coverage: 6, Seed: 1}.Build()
	want := make([]uint64, len(ds.Reads))
	for i := range ds.Reads {
		want[i] = readHash(&ds.Reads[i])
	}
	chk := &checker{ds: ds, want: want}
	out := cloneReads(ds.Reads)
	if f := chk.failedReads(out); f != 0 {
		t.Fatalf("clean output: %d failed", f)
	}
	out[3].Base[10] = (out[3].Base[10] + 1) % dna.NumBases
	out[4].Qual[0]++
	out[5] = out[6].Clone() // read 6 is lost, read 7 arrives twice
	if f := chk.failedReads(out); f != 4 {
		t.Errorf("corrupted output: %d failed, want 4 (flipped base, damaged quality, duplicate, missing)", f)
	}
	if f := chk.failedReads(out[:len(out)-2]); f != 6 {
		t.Errorf("truncated output: %d failed, want 6", f)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(x, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	x := []float64{9.1, 8.7, 9.4, 10.2, 8.9, 9.0, 9.8, 9.3, 9.6, 8.8}
	q1, q2, q3 := quartiles(x)
	for i, pair := range [][2]float64{{q1, 8.875}, {q2, 9.2}, {q3, 9.65}} {
		if math.Abs(pair[0]-pair[1]) > 1e-9 {
			t.Errorf("q%d = %v, Python gives %v", i+1, pair[0], pair[1])
		}
	}
	if m := median(x); math.Abs(m-9.2) > 1e-9 {
		t.Errorf("median = %v, want 9.2", m)
	}
}
