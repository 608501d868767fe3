package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one operation share a job id; parent is the index of
// the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a closed span with a duration the program itself measured
// (the miner's per-level timings), laid out from start.
func (t *tracer) record(name string, job, parent int, start int64, d time.Duration) int64 {
	if t == nil {
		return start
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: start, End: start + d.Nanoseconds()})
	t.mu.Unlock()
	return start + d.Nanoseconds()
}

func (t *tracer) startOf(id int) int64 {
	if t == nil || id < 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Start
}

// selfTimes returns, per job, the self time in milliseconds of every
// span name: the span's duration minus the time its children cover.
// Children of one span never overlap here: each operation's layer calls
// run one after another on its client goroutine.
func (t *tracer) selfTimes() map[int]map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[int]map[string]float64)
	for i, s := range t.spans {
		self := s.End - s.Start - child[i]
		if self < 0 {
			self = 0
		}
		if out[s.Job] == nil {
			out[s.Job] = make(map[string]float64)
		}
		out[s.Job][s.Name] += float64(self) / 1e6
	}
	return out
}

// layerMedians reports, for every layer span name, the median over jobs
// of its per-job self time as "<name>_ms"; the root "job" span's own
// remainder is "job.self_ms". Spans that only group calls (an ingest,
// a core.mine call around its levels) have no metric of their own.
func (t *tracer) layerMedians(m *metrics) {
	perJob := t.selfTimes()
	names := make(map[string]bool)
	for _, byName := range perJob {
		for n := range byName {
			names[n] = true
		}
	}
	for n := range names {
		var xs []float64
		for _, byName := range perJob {
			xs = append(xs, byName[n])
		}
		key := n + "_ms"
		if n == "job" {
			key = "job.self_ms"
		}
		if _, ok := unitOf[key]; ok {
			m.add(key, median(xs))
		}
	}
}

// dump writes the spans as JSON.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
