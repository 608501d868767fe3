package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
)

// tiny runs a workload at a small fraction of its input size for a
// fraction of a second.
func tiny(t *testing.T) config {
	return config{seed: 7, seconds: 0.5, scale: 0.1, dir: t.TempDir()}
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkJSON struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []named `json:"end_to_end"`
	PerLayer  []named `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkJSON
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	return bench
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics, with the units, that this program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	bench := readBenchmarkJSON(t)
	var ws []named
	for _, w := range workloads {
		ws = append(ws, named{Name: w.name})
	}
	defs := func(ds []metricDef) []named {
		var out []named
		for _, d := range ds {
			out = append(out, named{d.name, d.unit})
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []named
	}{
		{"workloads", bench.Workloads, ws},
		{"end_to_end", bench.EndToEnd, defs(endToEnd)},
		{"per_layer", bench.PerLayer, defs(perLayer)},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, program emits %v", c.what, c.got, c.want)
		}
	}
	for _, w := range workloads {
		for _, n := range w.unreached {
			if !slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == n }) {
				t.Errorf("%s: unreached metric %s is not a per-layer metric", w.name, n)
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that it passes its correctness checks and measures every metric
// it reports: all end-to-end metrics, positive, and every per-layer metric
// but the ones it lists as unreached. Between them the workloads measure
// every per-layer metric.
func TestSmoke(t *testing.T) {
	runtime.GOMAXPROCS(procs)
	measured := make(map[string]bool)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out, err := execute(context.Background(), w, tiny(t), traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.name, traced, out.failed, out.attempted)
			}
			if !traced {
				if len(out.emitted) != len(endToEnd) {
					t.Errorf("%s: measured %v, want every end-to-end metric", w.name, out.emitted)
				}
				for _, d := range endToEnd {
					if v := out.metrics.values[d.name].Value; v <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
					}
				}
				continue
			}
			if len(out.emitted)+len(w.unreached) != len(perLayer) {
				t.Errorf("%s: measured %d per-layer metrics and lists %d unreached, want %d in all",
					w.name, len(out.emitted), len(w.unreached), len(perLayer))
			}
			for _, n := range out.emitted {
				if slices.Contains(w.unreached, n) {
					t.Errorf("%s: measured %s, which it lists as unreached", w.name, n)
				}
				measured[n] = true
			}
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			t.Errorf("no workload measures per-layer metric %s", d.name)
		}
	}
}

// TestCorruptReferenceFails is the negative control: with every
// reference document altered by one byte, every job must count as failed.
func TestCorruptReferenceFails(t *testing.T) {
	runtime.GOMAXPROCS(procs)
	for _, w := range workloads {
		cfg := tiny(t)
		cfg.corrupt = true
		out, err := execute(context.Background(), w, cfg, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.failed == 0 || out.metrics.values["success_rate"].Value >= 1 {
			t.Errorf("%s: corrupted references passed the check (%d of %d failed)", w.name, out.failed, out.attempted)
		}
	}
}
