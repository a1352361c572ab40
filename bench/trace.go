package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Parent is the index of the span that caused it, -1 for a root.
type span struct {
	Name     string  `json:"name"`
	Start    float64 `json:"start"` // seconds since the trace began
	End      float64 `json:"end"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
}

// tracer keeps spans in memory and writes them out when the run ends. It is
// used from the benchmark's main goroutine only.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Seconds(), Parent: parent, Workload: t.workload})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.epoch).Seconds()
	return time.Duration((s.End - s.Start) * float64(time.Second))
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	fn()
	return t.end(id)
}

// add records a span that was timed elsewhere: on a rank goroutine, or by
// the program itself (a phase wall from stats.Rank). It returns the span id.
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	s := start.Sub(t.epoch).Seconds()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Seconds(), Parent: parent, Workload: t.workload})
	return len(t.spans) - 1
}

// selfSeconds returns, per span name, the time spent in spans of that name
// minus the time their direct children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

// dump writes the spans to out/trace-<workload>.json.
func (t *tracer) dump(outDir string) (string, error) {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
