package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"ftpm"
	"ftpm/internal/core"
	"ftpm/internal/datagen"
	"ftpm/internal/events"
	"ftpm/internal/memtrack"
	"ftpm/internal/mi"
)

// mode is one mining pass of a job: exact, or A-HTPGM at one granularity.
type mode int

const (
	exact mode = iota
	approxSeries
	approxEvent
)

// libSpec describes a library workload.
type libSpec struct {
	name     string
	profile  datagen.Profile
	fraction float64 // share of the profile's sequences
	pool     int     // distinct datasets the jobs cycle over
	support  float64 // σ = δ
	maxK     int
	density  float64 // A-HTPGM expected graph density
	modes    []mode  // the mining passes of one job
	// nominal is the expected seconds per iteration; the iteration count
	// is a fixed function of --seconds, the same on every build.
	nominal float64
}

func runDeepExact(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	return runLibrary(ctx, cfg, traced, libSpec{
		name: "deep-exact", profile: datagen.NIST(), fraction: 0.05, pool: 12,
		support: 0.65, maxK: 3, density: 0.4, modes: []mode{exact}, nominal: 0.68,
	})
}

func runColdApprox(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	return runLibrary(ctx, cfg, traced, libSpec{
		name: "cold-approx", profile: datagen.SmartCity(), fraction: 0.25, pool: 6,
		support: 0.5, maxK: 2, density: 0.4, modes: []mode{approxSeries, approxEvent}, nominal: 0.66,
	})
}

// options returns the mining options of one pass. Workers 1 and Shards 1
// select the unsharded serial path the references come from.
func (s libSpec) options(m mode, workers, maxK int) ftpm.Options {
	opt := ftpm.Options{
		MinSupport: s.support, MinConfidence: s.support, MaxPatternSize: maxK,
		WindowLength: windowOf(s.profile), Workers: workers,
	}
	switch m {
	case approxSeries:
		opt.Approx = &ftpm.ApproxOptions{Density: s.density}
	case approxEvent:
		opt.Approx = &ftpm.ApproxOptions{Density: s.density, EventLevel: true}
	}
	return opt
}

func windowOf(p datagen.Profile) ftpm.Duration { return ftpm.Duration(p.SamplesPerSeq) * p.Step }

// libData is one pool dataset with the reference documents of the
// workload's modes, mined on the serial path.
type libData struct {
	sdb *ftpm.SymbolicDB
	ref [3][]byte // per mode
	res [3]*ftpm.Result
}

// setupData generates pool dataset i and mines the references of the
// workload's modes on the unsharded serial path.
func (s libSpec) setupData(ctx context.Context, cfg config, i int) (*libData, error) {
	sdb, err := s.profile.Generate(datagen.Options{
		SequenceFraction: s.fraction * cfg.scale,
		SeedOffset:       cfg.seed*101 + int64(i),
	})
	if err != nil {
		return nil, err
	}
	d := &libData{sdb: sdb}
	for _, m := range s.modes {
		if err := d.reference(ctx, s, m, cfg.corrupt); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// reference mines mode m on the serial path, Workers 1 and Shards 1, and
// keeps its result and its export.
func (d *libData) reference(ctx context.Context, s libSpec, m mode, corrupt bool) error {
	opt := s.options(m, 1, s.maxK)
	opt.Shards = 1
	r, err := ftpm.MineSymbolic(ctx, d.sdb, opt)
	if err != nil {
		return fmt.Errorf("reference %d: %w", m, err)
	}
	var buf bytes.Buffer
	if err := r.ExportJSON(&buf); err != nil {
		return err
	}
	d.res[m], d.ref[m] = r, buf.Bytes()
	if corrupt {
		d.ref[m][len(d.ref[m])/2] ^= 1
	}
	return nil
}

// accuracy is the paper's Table IX quantity on dataset d: the lower of
// the series- and the event-level A-HTPGM accuracy against the exact
// result. Results the set-up did not mine are mined here on the parallel
// path, which the timed jobs show gives the serial path's results.
func (d *libData) accuracy(ctx context.Context, s libSpec) (float64, error) {
	for _, m := range []mode{exact, approxSeries, approxEvent} {
		if d.res[m] == nil {
			opt := s.options(m, procs, s.maxK)
			opt.Shards = procs
			r, err := ftpm.MineSymbolic(ctx, d.sdb, opt)
			if err != nil {
				return 0, err
			}
			d.res[m] = r
		}
	}
	return math.Min(ftpm.Accuracy(d.res[approxSeries], d.res[exact]), ftpm.Accuracy(d.res[approxEvent], d.res[exact])), nil
}

// iterations is the fixed operation count of a run: the multiple of
// step closest above seconds/nominal, at least step. It depends only on
// the arguments, so every build runs the same count.
func iterations(seconds, nominal float64, step int) int {
	n := int(math.Ceil(seconds / nominal / float64(step)))
	if n < 1 {
		n = 1
	}
	return n * step
}

// Off-clock passes after the measured section, over the first pool
// datasets: one job each under the heap sampler, and the accuracy.
const (
	heapJobs         = 4
	accuracyDatasets = 4
)

// libState carries one run's measurements.
type libState struct {
	s  libSpec
	tr *tracer

	attempted, failed int
	ingestMs, jobMs   []float64
	fetchMs           []float64
	layers            map[int]*layerCounts
	cpuSec, cpuWall   float64
}

// layerCounts are the per-iteration counters the traced run reads from
// the results the layers return.
type layerCounts struct {
	lk, l2                        core.LevelStats
	seriesFiltered, pairsFiltered int
	mu                            float64
	sequences, instances          int
	exportBytes                   int
}

func runLibrary(ctx context.Context, cfg config, traced bool, s libSpec) (*outcome, error) {
	st := &libState{s: s, layers: make(map[int]*layerCounts)}
	if traced {
		st.tr = newTracer()
	}
	var out outcome

	// Set-up, one pool dataset after another: generation and the serial
	// reference mines. setup_s is the median over the datasets. Only the
	// datasets the accuracy pass reads keep their reference results.
	//
	// Here and before every timed iteration the heap is collected off the
	// clock, so that no operation pays for the previous one's garbage.
	pool := make([]*libData, s.pool)
	setupS := make([]float64, s.pool)
	for i := range pool {
		runtime.GC()
		t0 := time.Now()
		d, err := s.setupData(ctx, cfg, i)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		pool[i], setupS[i] = d, time.Since(t0).Seconds()
		if i >= accuracyDatasets {
			d.res = [3]*ftpm.Result{}
		}
	}

	n := iterations(cfg.seconds, s.nominal, s.pool)
	h := sha256.New()
	for it := 0; it < n; it++ {
		d := pool[it%len(pool)]
		runtime.GC()
		for _, doc := range st.iteration(ctx, it, d, nil) {
			h.Write(doc)
		}
	}
	out.digest = fmt.Sprintf("%x", h.Sum(nil))

	m := &out.metrics
	m.add("setup_s", median(setupS))
	m.latency("job", st.jobMs)
	m.add("jobs_per_s", float64(len(st.jobMs))/(sum(st.jobMs)/1e3))
	m.latency("ingest", st.ingestMs)
	m.latency("fetch", st.fetchMs)
	if traced {
		st.layerMetrics(m)
		m.add("timeseries.runs_per_sample", runsPerSample(pool[0].sdb))
		if err := st.tr.dump(filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.json", s.name, cfg.seed))); err != nil {
			return nil, err
		}
	} else if !cfg.timingOnly {
		// Off the clock: heap and accuracy. The heap jobs are checked
		// like the timed ones.
		var heapMB []float64
		for i := 0; i < min(heapJobs, len(pool)); i++ {
			st.iteration(ctx, n+i, pool[i], &heapMB)
		}
		m.add("peak_heap_mb", median(heapMB))
		var acc []float64
		for _, d := range pool[:min(accuracyDatasets, len(pool))] {
			a, err := d.accuracy(ctx, s)
			if err != nil {
				return nil, err
			}
			acc = append(acc, a)
		}
		m.add("approx_accuracy", mean(acc))
	}
	out.attempted, out.failed = st.attempted, st.failed
	m.add("success_rate", 1-float64(out.failed)/float64(out.attempted))
	return &out, nil
}

// iteration runs one ingest and one job on dataset d and returns the
// job's documents, one per mode (nil where a pass failed). A job whose
// documents differ from the references counts as failed. Untraced it
// goes through the public Prepared API; traced it calls each layer in the
// order Prepared.Mine does, with a span around every call. With heapMB
// set, the job runs under the heap sampler and is not timed.
func (st *libState) iteration(ctx context.Context, it int, d *libData, heapMB *[]float64) [][]byte {
	s := st.s
	st.attempted++
	t0 := time.Now()
	in, err := st.ingest(ctx, it, d)
	if heapMB == nil {
		st.ingestMs = append(st.ingestMs, ms(time.Since(t0)))
	}
	if err != nil {
		st.failed++
		return nil
	}

	st.attempted++
	var docs [][]byte
	var jobMs, fetchMs float64
	if heapMB == nil {
		docs, jobMs, fetchMs, err = st.job(ctx, it, in)
	} else {
		u := memtrack.MeasurePeak(func() { docs, _, _, err = st.job(ctx, it, in) })
		*heapMB = append(*heapMB, u.DeltaMB())
	}
	mismatch := err != nil
	for i, doc := range docs {
		mismatch = mismatch || !bytes.Equal(doc, d.ref[s.modes[i]])
	}
	if mismatch {
		st.failed++
	}
	if err != nil {
		return nil
	}
	if heapMB == nil {
		st.jobMs = append(st.jobMs, jobMs)
		st.fetchMs = append(st.fetchMs, fetchMs)
	}
	if st.tr != nil {
		lc := st.counts(it)
		for _, doc := range docs {
			lc.exportBytes += len(doc)
		}
	}
	return docs
}

// job mines every mode of the workload on the handle and exports each
// result. It returns the documents, the job's time and the export's share
// of it.
func (st *libState) job(ctx context.Context, it int, in *handle) (docs [][]byte, jobMs, fetchMs float64, err error) {
	t0 := time.Now()
	root := st.tr.begin("job", it, -1)
	defer st.tr.end(root)
	for _, m := range st.s.modes {
		r, err := in.mine(ctx, st, it, root, m)
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		sp := st.tr.begin("export.encode", it, root)
		var buf bytes.Buffer
		err = r.ExportJSON(&buf)
		st.tr.end(sp)
		fetchMs += ms(time.Since(t1))
		if err != nil {
			return nil, 0, 0, err
		}
		docs = append(docs, buf.Bytes())
	}
	return docs, ms(time.Since(t0)), fetchMs, nil
}

func (st *libState) counts(it int) *layerCounts {
	lc := st.layers[it]
	if lc == nil {
		lc = &layerCounts{}
		st.layers[it] = lc
	}
	return lc
}

// handle is an ingested dataset: the public Prepared handle, or in the
// traced run the layer artifacts Prepared would hold.
type handle struct {
	sdb  *ftpm.SymbolicDB
	prep *ftpm.Prepared
	view *core.ShardedView
	pw   *mi.Pairwise
	epw  *mi.EventPairwise
}

// ingest makes a dataset mineable on a fresh handle: conversion into
// procs shards and the L1 index, realized by a one-level mine.
func (st *libState) ingest(ctx context.Context, it int, d *libData) (*handle, error) {
	s := st.s
	warm := s.options(exact, procs, 1)
	if st.tr == nil {
		p, err := ftpm.Prepare(d.sdb, ftpm.SplitOptions{WindowLength: warm.WindowLength}, procs)
		if err != nil {
			return nil, err
		}
		if _, err := p.Mine(ctx, warm); err != nil {
			return nil, err
		}
		return &handle{sdb: d.sdb, prep: p}, nil
	}
	root := st.tr.begin("ingest", it, -1)
	defer st.tr.end(root)
	sp := st.tr.begin("events.convert", it, root)
	shards, err := events.ConvertShards(d.sdb, events.SplitOptions{WindowLength: warm.WindowLength}, procs)
	st.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = st.tr.begin("core.prepare", it, root)
	view, err := core.PrepareShards(shards)
	st.tr.end(sp)
	if err != nil {
		return nil, err
	}
	h := &handle{sdb: d.sdb, view: view}
	if _, err := h.mineCore(ctx, st, it, root, core.Config{MinSupport: s.support, MinConfidence: s.support, MaxK: 1, Workers: procs}); err != nil {
		return nil, err
	}
	lc := st.counts(it)
	es := view.Merged.Stats()
	lc.sequences, lc.instances = es.NumSequences, es.TotalInstances
	return h, nil
}

// mine runs one pass of a job on the handle.
func (h *handle) mine(ctx context.Context, st *libState, it, root int, m mode) (*ftpm.Result, error) {
	s := st.s
	if st.tr == nil {
		return h.prep.Mine(ctx, s.options(m, procs, s.maxK))
	}
	cfg := core.Config{MinSupport: s.support, MinConfidence: s.support, MaxK: s.maxK, Workers: procs}
	out := &ftpm.Result{}
	switch m {
	case approxSeries:
		if h.pw == nil {
			sp := st.tr.begin("mi.pairwise", it, root)
			pw, err := mi.ComputePairwise(h.sdb)
			st.tr.end(sp)
			if err != nil {
				return nil, err
			}
			h.pw = pw
		}
		sp := st.tr.begin("mi.graph", it, root)
		mu, err := mi.ResolveMu(h.pw, 0, s.density)
		var g *mi.Graph
		if err == nil {
			g, err = h.pw.Graph(mu)
		}
		st.tr.end(sp)
		if err != nil {
			return nil, err
		}
		cfg.Filter, out.Graph, out.Mu = g, g, mu
		st.counts(it).mu = mu
	case approxEvent:
		if h.epw == nil {
			sp := st.tr.begin("mi.event_pairwise", it, root)
			epw, err := mi.ComputeEventPairwise(h.sdb)
			st.tr.end(sp)
			if err != nil {
				return nil, err
			}
			h.epw = epw
		}
		sp := st.tr.begin("mi.graph", it, root)
		mu, err := mi.ResolveMu(h.epw, 0, s.density)
		var g *mi.EventGraph
		if err == nil {
			g, err = h.epw.Graph(mu)
		}
		st.tr.end(sp)
		if err != nil {
			return nil, err
		}
		cfg.EventFilter, out.EventGraph, out.Mu = g, g, mu
	}
	res, err := h.mineCore(ctx, st, it, root, cfg)
	if err != nil {
		return nil, err
	}
	out.Singles, out.Patterns, out.Stats, out.DB = res.Singles, res.Patterns, res.Stats, h.view.Merged
	return out, nil
}

// mineCore calls core.MineShardedView under a span, lays the miner's own
// per-level timings out as child spans, and accumulates the level
// counters and the CPU the call used.
func (h *handle) mineCore(ctx context.Context, st *libState, it, root int, cfg core.Config) (*core.Result, error) {
	sp := st.tr.begin("core.mine", it, root)
	cpu0, t0 := cpuSeconds(), time.Now()
	res, err := core.MineShardedView(ctx, h.view, cfg)
	st.cpuSec += cpuSeconds() - cpu0
	st.cpuWall += time.Since(t0).Seconds() * procs
	st.tr.end(sp)
	if err != nil {
		return nil, err
	}
	at := st.tr.startOf(sp)
	lc := st.counts(it)
	for _, l := range res.Stats.Levels {
		switch {
		case l.K == 1:
			at = st.tr.record("core.l1", it, sp, at, l.Duration)
		case l.K == 2:
			at = st.tr.record("core.l2", it, sp, at, l.Duration)
			addLevel(&lc.l2, l)
		default:
			at = st.tr.record("core.lk", it, sp, at, l.Duration)
			addLevel(&lc.lk, l)
		}
	}
	lc.seriesFiltered += res.Stats.SeriesFiltered
	lc.pairsFiltered += res.Stats.PairsFiltered
	return res, nil
}

func addLevel(dst *core.LevelStats, l core.LevelStats) {
	dst.Candidates += l.Candidates
	dst.PrunedApriori += l.PrunedApriori
	dst.PrunedTrans += l.PrunedTrans
	dst.NodesVerified += l.NodesVerified
	dst.Patterns += l.Patterns
	dst.Occurrences += l.Occurrences
	dst.TripleChecksFailed += l.TripleChecksFailed
}

// layerMetrics reports the per-layer metrics of a traced library run:
// self times per layer and the medians over iterations of the counters.
// Lk counters are reported when the workload mines past L2, MI counters
// when it runs A-HTPGM.
func (st *libState) layerMetrics(m *metrics) {
	st.tr.layerMedians(m)
	med := func(name string, f func(lc *layerCounts) float64) {
		var xs []float64
		for _, lc := range st.layers {
			xs = append(xs, f(lc))
		}
		m.add(name, median(xs))
	}
	if st.s.maxK >= 3 {
		med("core.lk_candidates", func(lc *layerCounts) float64 { return float64(lc.lk.Candidates) })
		med("core.lk_pruned_apriori", func(lc *layerCounts) float64 { return float64(lc.lk.PrunedApriori) })
		med("core.lk_pruned_trans", func(lc *layerCounts) float64 { return float64(lc.lk.PrunedTrans) })
		med("core.lk_verified", func(lc *layerCounts) float64 { return float64(lc.lk.NodesVerified) })
		med("core.lk_patterns", func(lc *layerCounts) float64 { return float64(lc.lk.Patterns) })
		med("core.lk_triple_checks_failed", func(lc *layerCounts) float64 { return float64(lc.lk.TripleChecksFailed) })
		med("core.occurrences", func(lc *layerCounts) float64 { return float64(lc.lk.Occurrences) })
		med("core.lk_yield", func(lc *layerCounts) float64 {
			if lc.lk.NodesVerified == 0 {
				return 0
			}
			return float64(lc.lk.Patterns) / float64(lc.lk.NodesVerified)
		})
	}
	if slices.ContainsFunc(st.s.modes, func(md mode) bool { return md != exact }) {
		med("mi.series_filtered", func(lc *layerCounts) float64 { return float64(lc.seriesFiltered) })
		med("mi.pairs_filtered", func(lc *layerCounts) float64 { return float64(lc.pairsFiltered) })
		med("mi.mu", func(lc *layerCounts) float64 { return lc.mu })
	}
	med("core.l2_candidates", func(lc *layerCounts) float64 { return float64(lc.l2.Candidates) })
	med("core.l2_verified", func(lc *layerCounts) float64 { return float64(lc.l2.NodesVerified) })
	med("core.l2_patterns", func(lc *layerCounts) float64 { return float64(lc.l2.Patterns) })
	med("core.l2_occurrences", func(lc *layerCounts) float64 { return float64(lc.l2.Occurrences) })
	med("events.sequences", func(lc *layerCounts) float64 { return float64(lc.sequences) })
	med("events.instances", func(lc *layerCounts) float64 { return float64(lc.instances) })
	med("export.bytes", func(lc *layerCounts) float64 { return float64(lc.exportBytes) })
	if st.cpuWall > 0 {
		m.add("par.cpu_utilization", st.cpuSec/st.cpuWall)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runsPerSample is the run-length compression of a dataset: maximal
// symbol runs per stored sample.
func runsPerSample(src ftpm.SymbolSource) float64 {
	var runs []ftpm.Run
	total := 0
	for i := 0; i < src.NumSeries(); i++ {
		runs = src.AppendRuns(i, runs[:0])
		total += len(runs)
	}
	return float64(total) / float64(src.Len()*src.NumSeries())
}
