// Command perfbench is the repository benchmark. It drives one named
// workload against the ftpm library or the ftpm HTTP service, checks every
// result against an independently mined reference, and prints one JSON
// result object as its last line of standard output.
//
//	go build -o perfbench . && ./perfbench --workload deep-exact --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs a short untraced pass, then the same workload with spans around
// every layer call the benchmark makes, and reports per-layer metrics.
// README.md lists the workloads, the metrics and why each exists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
)

// procs is the parallelism every workload runs with: GOMAXPROCS, the
// library worker count, the shard count and the service worker pool.
const procs = 2

// config is what one invocation asks of a workload.
type config struct {
	seed    int64
	seconds float64
	// scale multiplies every input size; 1 is the benchmark, the smoke
	// test runs a tiny fraction of it.
	scale float64
	// dir is a scratch directory inside the checkout for durable state.
	dir string
	// corrupt flips one byte of every reference, so a correct program
	// must fail every check (the smoke test's negative control).
	corrupt bool
	// timingOnly skips the off-clock heap and accuracy passes: the
	// untraced half of a traced invocation only needs job times and
	// documents.
	timingOnly bool
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           metrics
	// digest hashes every result document in operation order; the traced
	// and untraced halves of a traced invocation must agree on it.
	digest string
	// emitted names the reported metrics the run measured; the others
	// are unreached layers reading 0.
	emitted []string
}

type workload struct {
	name string
	run  func(ctx context.Context, cfg config, traced bool) (*outcome, error)
	// unreached are the per-layer metrics of layers the workload does not
	// call; they read 0. Every other metric must be measured.
	unreached []string
}

// Per-layer metrics of layers only some workloads reach.
var (
	lkLayer = []string{
		"core.lk_ms", "core.lk_candidates", "core.lk_pruned_apriori", "core.lk_pruned_trans",
		"core.lk_verified", "core.lk_patterns", "core.lk_triple_checks_failed", "core.lk_yield",
		"core.occurrences",
	}
	miLayer = []string{
		"mi.pairwise_ms", "mi.event_pairwise_ms", "mi.graph_ms", "mi.series_filtered",
		"mi.pairs_filtered", "mi.mu",
	}
	serviceLayers = []string{
		"csvio.parse_ms", "timeseries.symbolize_ms",
		"store.seal_ms", "store.open_ms", "store.bytes_per_sample", "store.fsyncs", "store.fsync_ms",
		"store.bytes_written", "store.wal_records", "store.retries",
		"server.upload_ms", "server.append_ms", "server.submit_ms", "server.job_wait_ms",
		"server.result_ms", "server.page_ms", "server.delete_ms", "server.rejected",
		"server.dseq_cache_hit_ratio", "server.result_cache_hit_ratio", "server.max_queue_depth",
		"hub.published", "hub.dropped",
	}
)

// workloads are the benchmark's workloads; README.md says why each one
// exists and which layers it exercises.
var workloads = []workload{
	{"deep-exact", runDeepExact, slices.Concat(miLayer, serviceLayers)},
	{"cold-approx", runColdApprox, slices.Concat(lkLayer, serviceLayers)},
	// The server is a black box: its event-level NMI is not called, and a
	// job has no benchmark-side root span to take a remainder from.
	{"service-live", runServiceLive, slices.Concat(lkLayer, []string{"mi.event_pairwise_ms", "job.self_ms"})},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: deep-exact, cold-approx or service-live")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "nominal length of the measured section")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := flag.String("dir", ".bench_build/run", "scratch directory for durable state and span dumps")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, seconds: *seconds, scale: 1, dir: *dir}
	out, err := execute(context.Background(), w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printResult(os.Stdout, out)
}

// execute runs one invocation. A traced invocation first runs the
// workload untraced for half the time, then traced for the other half,
// and checks that both produced the same result documents.
func execute(ctx context.Context, w workload, cfg config, traced bool) (*outcome, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	if !traced {
		out, err := w.run(ctx, cfg, false)
		if err != nil {
			return nil, err
		}
		out.emitted, err = out.metrics.keep(endToEnd, nil)
		return out, err
	}
	half := cfg
	half.seconds = cfg.seconds / 2
	base := half
	base.timingOnly = true
	plain, err := w.run(ctx, base, false)
	if err != nil {
		return nil, err
	}
	out, err := w.run(ctx, half, true)
	if err != nil {
		return nil, err
	}
	out.attempted += plain.attempted
	out.failed += plain.failed
	if plain.digest != out.digest {
		fmt.Fprintln(os.Stderr, "perfbench: traced result documents differ from the untraced run's")
		out.failed++
	}
	untraced, tracedP50 := plain.metrics.values["job_p50_ms"].Value, out.metrics.values["job_p50_ms"].Value
	if untraced > 0 {
		out.metrics.add("trace.overhead_ratio", tracedP50/untraced)
	}
	out.emitted, err = out.metrics.keep(perLayer, w.unreached)
	return out, err
}

func printResult(f *os.File, out *outcome) {
	for _, line := range out.metrics.notes {
		fmt.Fprintln(f, line)
	}
	names := make([]string, 0, len(out.metrics.values))
	for n := range out.metrics.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := out.metrics.values[n]
		fmt.Fprintf(f, "%-36s %14.4f %s\n", n, v.Value, v.Unit)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(f, string(b))
}
