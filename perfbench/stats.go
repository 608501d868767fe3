package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
)

// metricDef is a metric's name and unit. The two tables below are the
// only place units are written down; TestBenchmarkJSONMatches checks them
// against BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, in the order
// BENCHMARK.json lists them. Every workload emits all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_heap_mb", "MiB"},
	{"success_rate", "ratio"},
	{"approx_accuracy", "ratio"},
	{"ingest_p50_ms", "ms"},
	{"ingest_tail_ms", "ms"},
	{"fetch_p50_ms", "ms"},
	{"fetch_tail_ms", "ms"},
}

// perLayer are the metrics a traced run reports. A workload emits the
// ones its layers reach and names the rest in its unreached list.
var perLayer = []metricDef{
	{"core.lk_ms", "ms"},
	{"core.lk_candidates", "count"},
	{"core.lk_pruned_apriori", "count"},
	{"core.lk_pruned_trans", "count"},
	{"core.lk_verified", "count"},
	{"core.lk_patterns", "count"},
	{"core.lk_triple_checks_failed", "count"},
	{"core.lk_yield", "ratio"},
	{"core.occurrences", "count"},
	{"core.prepare_ms", "ms"},
	{"core.l1_ms", "ms"},
	{"core.l2_ms", "ms"},
	{"core.l2_candidates", "count"},
	{"core.l2_verified", "count"},
	{"core.l2_patterns", "count"},
	{"core.l2_occurrences", "count"},
	{"par.cpu_utilization", "ratio"},
	{"events.convert_ms", "ms"},
	{"events.sequences", "count"},
	{"events.instances", "count"},
	{"mi.pairwise_ms", "ms"},
	{"mi.event_pairwise_ms", "ms"},
	{"mi.graph_ms", "ms"},
	{"mi.series_filtered", "count"},
	{"mi.pairs_filtered", "count"},
	{"mi.mu", "ratio"},
	{"export.encode_ms", "ms"},
	{"export.bytes", "bytes"},
	{"csvio.parse_ms", "ms"},
	{"timeseries.symbolize_ms", "ms"},
	{"timeseries.runs_per_sample", "ratio"},
	{"store.seal_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.bytes_per_sample", "ratio"},
	{"store.fsyncs", "count"},
	{"store.fsync_ms", "ms"},
	{"store.bytes_written", "bytes"},
	{"store.wal_records", "count"},
	{"store.retries", "count"},
	{"server.upload_ms", "ms"},
	{"server.append_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.job_wait_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.page_ms", "ms"},
	{"server.delete_ms", "ms"},
	{"server.rejected", "count"},
	{"server.dseq_cache_hit_ratio", "ratio"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"server.max_queue_depth", "count"},
	{"hub.published", "count"},
	{"hub.dropped", "count"},
	{"job.self_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	u := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values plus human-readable notes (the tail
// percentiles and their sample counts) printed above the result line.
type metrics struct {
	values map[string]metric
	notes  []string
}

// add sets a metric; its unit comes from the tables above.
func (m *metrics) add(name string, v float64) {
	unit, ok := unitOf[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the metric tables")
	}
	if m.values == nil {
		m.values = make(map[string]metric)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = metric{Value: v, Unit: unit}
}

func (m *metrics) notef(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// latency adds <prefix>_p50_ms and <prefix>_tail_ms from samples in
// milliseconds. The tail is the highest percentile with at least ten
// samples above it; a run is a fixed number of operations, so the same
// percentile is reported on every build.
func (m *metrics) latency(prefix string, ms []float64) {
	m.add(prefix+"_p50_ms", median(ms))
	v, pct := tail(ms)
	m.add(prefix+"_tail_ms", v)
	m.notef("%s_tail_ms is p%.0f of %d samples", prefix, pct, len(ms))
}

// keep narrows m to exactly the given metrics and returns the names the
// run emitted. A name it did not emit reads 0 if the workload lists it as
// unreached, and is an error otherwise.
func (m *metrics) keep(defs []metricDef, unreached []string) ([]string, error) {
	out := make(map[string]metric, len(defs))
	var emitted, missing []string
	for _, d := range defs {
		if v, ok := m.values[d.name]; ok {
			out[d.name] = v
			emitted = append(emitted, d.name)
		} else if slices.Contains(unreached, d.name) {
			out[d.name] = metric{Unit: d.unit}
		} else {
			missing = append(missing, d.name)
		}
	}
	m.values = out
	if len(missing) > 0 {
		return emitted, fmt.Errorf("metrics not emitted: %v", missing)
	}
	return emitted, nil
}

func (m metrics) MarshalJSON() ([]byte, error) { return json.Marshal(m.values) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the sample with exactly ten samples above it and its
// percentile rank; with ten samples or fewer it is the minimum.
func tail(xs []float64) (v float64, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	i := len(s) - 11
	if i < 0 {
		i = 0
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
