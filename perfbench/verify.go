package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ftpm"
	"ftpm/internal/core"
	"ftpm/internal/csvio"
	"ftpm/internal/events"
	"ftpm/internal/mi"
	"ftpm/internal/server/store"
)

// accuracySessions is how many sessions also mine the exact result on
// the full data, for approx_accuracy; sideSessions is how many the traced
// run re-ingests layer by layer.
const (
	accuracySessions = 4
	sideSessions     = 2
)

// verification is the off-clock check of a service-live run.
type verification struct {
	failed   int
	digest   string
	accuracy float64
	layers   metrics
}

// verifySessions re-mines every session's data through the library's
// unsharded serial path and compares the exports with the /result
// documents the service returned: the exact job against the uploaded
// prefix, the A-HTPGM job against the full data, which checks that
// append-then-mine equals a fresh upload of everything. It runs after the
// measured section, on procs goroutines.
func verifySessions(ctx context.Context, cfg config, logs []*sessionLog, traced bool) (*verification, error) {
	type check struct {
		bad bool
		ref reference
		err error
	}
	checks := make([]check, len(logs))
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := c; s < len(logs); s += procs {
				ck := &checks[s]
				ck.ref, ck.err = referenceDocs(ctx, cfg, s, s < accuracySessions)
				sl := logs[s]
				ck.bad = ck.err != nil || !sl.ok || sl.docs != ck.ref.digests || sl.pages != ck.ref.patterns
			}
		}(c)
	}
	wg.Wait()

	v := &verification{}
	h := sha256.New()
	accN := 0
	for s, ck := range checks {
		if ck.err != nil {
			return nil, fmt.Errorf("reference for session %d: %w", s, ck.err)
		}
		if ck.bad {
			v.failed++
		}
		h.Write(logs[s].docs[0][:])
		h.Write(logs[s].docs[1][:])
		if s < accuracySessions {
			v.accuracy += ck.ref.accuracy
			accN++
		}
	}
	if accN > 0 {
		v.accuracy /= float64(accN)
	}
	v.digest = fmt.Sprintf("%x", h.Sum(nil))
	if traced {
		if err := sideMeasure(ctx, cfg, &v.layers); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// liveOptions are the library options of the service jobs.
func liveOptions(approx bool, workers int) ftpm.Options {
	sp := liveSpec
	opt := ftpm.Options{
		MinSupport: sp.support, MinConfidence: sp.support, MaxPatternSize: sp.maxK,
		WindowLength: windowOf(sp.profile), Workers: workers, Shards: workers,
	}
	if approx {
		opt.Approx = &ftpm.ApproxOptions{Density: sp.density}
	}
	return opt
}

// reference is what a session's responses must match.
type reference struct {
	// digests are the SHA-256 digests of the serial-path exports the two
	// /result documents must equal; patterns is the A-HTPGM pattern count
	// the page walk must return.
	digests  [2][32]byte
	patterns int
	// accuracy is the A-HTPGM result's accuracy against the exact result
	// on the full data, when asked for.
	accuracy float64
}

func referenceDocs(ctx context.Context, cfg config, s int, withAccuracy bool) (reference, error) {
	var ref reference
	in, err := genSession(cfg, s)
	if err != nil {
		return ref, err
	}
	pre, err := prefix(in.full, in.cut)
	if err != nil {
		return ref, err
	}
	var approx *ftpm.Result
	for slot, src := range []*ftpm.SymbolicDB{pre, in.full} {
		r, err := ftpm.MineSymbolic(ctx, src, liveOptions(slot == 1, 1))
		if err != nil {
			return ref, err
		}
		var buf bytes.Buffer
		if err := r.ExportJSON(&buf); err != nil {
			return ref, err
		}
		if cfg.corrupt {
			buf.Bytes()[buf.Len()/2] ^= 1
		}
		ref.digests[slot] = sha256.Sum256(buf.Bytes())
		approx = r
	}
	ref.patterns = len(approx.Patterns)
	if withAccuracy {
		ex, err := ftpm.MineSymbolic(ctx, in.full, liveOptions(false, 1))
		if err != nil {
			return ref, err
		}
		ref.accuracy = ftpm.Accuracy(approx, ex)
	}
	return ref, nil
}

// sideMeasure times, for the first sessions' inputs, the layer calls the
// server makes internally and the benchmark cannot wrap from outside:
// CSV parsing, symbolizing, sealing and opening a segment, the sharded
// conversion with its delta after the append, the shard view, the NMI
// table with its graph, and the export. Each value is the median over
// the sessions measured.
func sideMeasure(ctx context.Context, cfg config, m *metrics) error {
	sp := liveSpec
	timings := make(map[string][]float64)
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		timings[name] = append(timings[name], ms(time.Since(t0)))
		return err
	}
	values := make(map[string][]float64)
	note := func(name string, x float64) { values[name] = append(values[name], x) }
	for s := 0; s < sideSessions; s++ {
		in, err := genSession(cfg, s)
		if err != nil {
			return err
		}
		var series []*ftpm.TimeSeries
		if err := timed("csvio.parse", func() (err error) {
			series, err = csvio.ReadNumericChunked(bytes.NewReader(in.upload), procs)
			return err
		}); err != nil {
			return err
		}
		var pre *ftpm.SymbolicDB
		if err := timed("timeseries.symbolize", func() (err error) {
			pre, err = ftpm.Symbolize(series, func(string) ftpm.Symbolizer { return ftpm.OnOff(sp.threshold) })
			return err
		}); err != nil {
			return err
		}
		path := filepath.Join(cfg.dir, fmt.Sprintf("side-%d-%d.seg", cfg.seed, s))
		var size int64
		if err := timed("store.seal", func() (err error) {
			size, err = store.WriteSegmentFS(store.OS(), path, pre, "bench")
			return err
		}); err != nil {
			return err
		}
		if err := timed("store.open", func() error {
			seg, err := store.OpenSegmentFS(store.OS(), path)
			if err == nil {
				err = seg.Close()
			}
			return err
		}); err != nil {
			return err
		}
		if err := os.Remove(path); err != nil {
			return err
		}
		note("store.bytes_per_sample", float64(size)/float64(pre.Len()*pre.NumSeries()))
		note("timeseries.runs_per_sample", runsPerSample(pre))

		split := events.SplitOptions{WindowLength: windowOf(sp.profile)}
		var shards []*events.DB
		if err := timed("events.convert", func() (err error) {
			var prev []*events.DB
			if prev, err = events.ConvertShards(pre, split, procs); err == nil {
				shards, _, err = events.ConvertShardsDelta(in.full, split, procs, prev, pre.End())
			}
			return err
		}); err != nil {
			return err
		}
		var view *core.ShardedView
		if err := timed("core.prepare", func() (err error) {
			view, err = core.PrepareShards(shards)
			return err
		}); err != nil {
			return err
		}
		st := view.Merged.Stats()
		note("events.sequences", float64(st.NumSequences))
		note("events.instances", float64(st.TotalInstances))

		var pw *mi.Pairwise
		if err := timed("mi.pairwise", func() (err error) {
			pw, err = mi.ComputePairwise(in.full)
			return err
		}); err != nil {
			return err
		}
		if err := timed("mi.graph", func() error {
			mu, err := mi.ResolveMu(pw, 0, sp.density)
			if err == nil {
				_, err = pw.Graph(mu)
			}
			return err
		}); err != nil {
			return err
		}

		r, err := ftpm.MineSymbolic(ctx, in.full, liveOptions(true, procs))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := timed("export.encode", func() error { return r.ExportJSON(&buf) }); err != nil {
			return err
		}
		note("export.bytes", float64(buf.Len()))
		var l2 core.LevelStats
		for _, l := range r.Stats.Levels {
			if l.K == 2 {
				addLevel(&l2, l)
			}
		}
		note("core.l2_candidates", float64(l2.Candidates))
		note("core.l2_verified", float64(l2.NodesVerified))
		note("core.l2_patterns", float64(l2.Patterns))
		note("core.l2_occurrences", float64(l2.Occurrences))
		note("mi.series_filtered", float64(r.Stats.SeriesFiltered))
		note("mi.pairs_filtered", float64(r.Stats.PairsFiltered))
		note("mi.mu", r.Mu)
	}
	for name, xs := range timings {
		m.add(name+"_ms", median(xs))
	}
	for name, xs := range values {
		m.add(name, median(xs))
	}
	return nil
}
