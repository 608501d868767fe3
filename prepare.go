package ftpm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ftpm/internal/core"
	"ftpm/internal/events"
	"ftpm/internal/mi"
)

// This file implements the prepared-dataset mining engine: the paper's
// FTPMfTS process staged explicitly as Prepare → Analyze → Mine.
//
//   - Prepare fixes the dataset geometry — the symbolic database, the
//     window split, the shard width — and owns the derived artifacts:
//     the sharded DSEQ conversion with its merged view, and the
//     series-level and event-level pairwise NMI tables, both derived
//     from one set of series-pair joint counts.
//   - Analyze is the lazy construction of those artifacts: each is built
//     at most once per Prepared, on first use, and memoized.
//   - Mine runs E-HTPGM or A-HTPGM against the cached artifacts; only
//     the thresholds (σ, δ, µ/density) and mining parameters vary per
//     call.
//
// One Prepared therefore serves any number of mining runs over the same
// dataset geometry: a second A-HTPGM job re-runs neither the DSEQ
// conversion nor the O(n²) pairwise NMI analysis, it only re-thresholds
// the cached table (AMIC-style reuse of one mutual-information analysis
// across many queries). MineSymbolic is a thin wrapper that prepares and
// mines once.

// cached is a build-once artifact slot. The first get builds (and may
// cache an error — builds are deterministic in the Prepared's inputs);
// concurrent getters block on the build instead of duplicating it.
type cached[T any] struct {
	once  sync.Once
	val   T
	err   error
	ready atomic.Bool
}

// get returns the artifact and whether it was served from cache (false
// exactly once: for the caller whose build populated the slot).
func (c *cached[T]) get(build func() (T, error)) (T, bool, error) {
	hit := true
	c.once.Do(func() {
		hit = false
		c.val, c.err = build()
		c.ready.Store(true)
	})
	return c.val, hit, c.err
}

// peek returns the artifact if — and only if — a build already completed
// successfully, without triggering one.
func (c *cached[T]) peek() (T, bool) {
	if c.ready.Load() && c.err == nil {
		return c.val, true
	}
	var zero T
	return zero, false
}

// PreparedStats are the cumulative artifact-cache counters of one
// Prepared: how often each artifact class was built versus served from
// cache. Builds+Hits equals the number of accesses.
type PreparedStats struct {
	// DSEQBuilds / DSEQHits count accesses to the DSYB→DSEQ conversion
	// (including its merged view).
	DSEQBuilds int64 `json:"dseq_builds"`
	DSEQHits   int64 `json:"dseq_hits"`
	// NMIBuilds / NMIHits count accesses to the pairwise NMI tables,
	// series-level and event-level combined.
	NMIBuilds int64 `json:"nmi_builds"`
	NMIHits   int64 `json:"nmi_hits"`
}

// CacheInfo reports which prepared artifacts one mining run reused. A run
// that built an artifact itself (the first over its Prepared) reports
// false for it, as does a run that never touched it (NMI on exact runs).
type CacheInfo struct {
	// DSEQ is true when the run's sequence database came from the
	// Prepared's cache rather than a fresh DSYB→DSEQ conversion.
	DSEQ bool
	// NMI is true when the run is approximate and its pairwise NMI table
	// came from the Prepared's cache rather than a fresh computation.
	NMI bool
}

// Analysis memoizes the geometry-independent artifacts of one symbolic
// database: the series-pair joint counts (one run sweep per series pair,
// O(n²·runs)) and the two pairwise NMI tables derived from them — the
// series-level table, and the event-level one, which adds O(m²) for m
// events. A handle that mines both granularities therefore sweeps the
// data once; a series-level job never derives the event table. The
// artifacts depend only on the data — not on the window split, shard
// width, or any threshold — so one Analysis can back any number of
// Prepared handles over the same database (PrepareWith), the way a
// served registry keeps one analysis per dataset across all requested
// window geometries.
type Analysis struct {
	src SymbolSource

	joints cached[*mi.Joints]
	pw     cached[*mi.Pairwise]
	epw    cached[*mi.EventPairwise]
}

// sharedJoints returns the memoized series-pair joints both NMI tables
// derive from. Its accesses are not counted: PreparedStats counts the
// tables.
func (a *Analysis) sharedJoints() *mi.Joints {
	jt, _, _ := a.joints.get(func() (*mi.Joints, error) {
		return mi.ComputeJoints(a.src), nil
	})
	return jt
}

// NewAnalysis wraps a symbolic database for NMI-table sharing across
// Prepared handles. The tables build lazily on first use.
func NewAnalysis(sdb *SymbolicDB) *Analysis {
	if sdb == nil {
		return &Analysis{}
	}
	return &Analysis{src: sdb}
}

// NewAnalysisSource wraps any SymbolSource — the in-memory database or an
// out-of-core columnar view such as the server's mmap'd segments — for
// NMI-table sharing across Prepared handles. Mining through the wrapped
// source is byte-identical to mining the equivalent in-memory database.
func NewAnalysisSource(src SymbolSource) *Analysis { return &Analysis{src: src} }

// Prepared is a reusable mining handle over one dataset geometry: a
// symbolic database, a window split, and a shard width, fixed at Prepare
// time. It memoizes the expensive derived artifacts — the sharded DSEQ
// conversion and, through its Analysis, the pairwise NMI tables — so
// repeated Mine calls with different thresholds share them. All methods
// are safe for concurrent use; concurrent first accesses of an artifact
// block on one build instead of duplicating it.
type Prepared struct {
	src    SymbolSource
	split  SplitOptions
	shards int
	an     *Analysis

	// prev, when set by Advance, is the handle this one extends: the
	// first sequences() build converts incrementally against prev's
	// memoized conversion instead of from scratch, then drops the link so
	// retired generations become collectable. Guarded by prevMu (the
	// build clears it while an Advance may be walking the chain).
	prevMu sync.Mutex
	prev   *Prepared

	// seq is the memoized DSEQ conversion: the shard set (one shard at
	// width 1) and its merged view.
	seq cached[*core.ShardedView]

	dseqBuilds, dseqHits atomic.Int64
	nmiBuilds, nmiHits   atomic.Int64
}

// Prepare builds a mining handle for one dataset geometry. The split
// geometry is validated eagerly; the expensive artifacts (DSEQ
// conversion, NMI tables) are built lazily on first use and then reused
// by every subsequent Mine. shards <= 1 prepares a one-shard handle;
// larger values partition the DSEQ round-robin exactly like
// Options.Shards.
func Prepare(sdb *SymbolicDB, split SplitOptions, shards int) (*Prepared, error) {
	return PrepareWith(NewAnalysis(sdb), split, shards)
}

// PrepareWith builds a mining handle that shares a previously created
// Analysis, so handles over different window geometries (or shard
// widths) of the same database reuse one set of NMI tables. The handle's
// own cache counters still account its accesses: a table built by a
// sibling handle counts as a hit here.
func PrepareWith(an *Analysis, split SplitOptions, shards int) (*Prepared, error) {
	if an == nil || an.src == nil {
		return nil, fmt.Errorf("ftpm: Prepare requires a symbolic database")
	}
	if err := split.Validate(an.src); err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = 1
	}
	return &Prepared{src: an.src, split: split, shards: shards, an: an}, nil
}

// Shards returns the shard width the handle was prepared with (>= 1).
func (p *Prepared) Shards() int { return p.shards }

// takePrev claims and clears the delta-ancestor link.
func (p *Prepared) takePrev() *Prepared {
	p.prevMu.Lock()
	defer p.prevMu.Unlock()
	prev := p.prev
	p.prev = nil
	return prev
}

// peekPrev reads the delta-ancestor link without claiming it.
func (p *Prepared) peekPrev() *Prepared {
	p.prevMu.Lock()
	defer p.prevMu.Unlock()
	return p.prev
}

// extends validates that next is an in-place temporal extension of old:
// the same series (by position and name) on the same grid, each at least
// as long, with alphabets only appended to. The per-sample symbol prefix
// is a documented contract of the append path rather than a checked one —
// verifying it would re-read every old sample and erase the point of a
// delta conversion.
func extends(old, next SymbolSource) error {
	if next.NumSeries() != old.NumSeries() {
		return fmt.Errorf("series count changed (%d -> %d)", old.NumSeries(), next.NumSeries())
	}
	if next.Start() != old.Start() || next.Step() != old.Step() {
		return fmt.Errorf("sampling grid changed")
	}
	if next.Len() < old.Len() {
		return fmt.Errorf("database shrank (%d -> %d samples)", old.Len(), next.Len())
	}
	for i := 0; i < old.NumSeries(); i++ {
		name := old.SeriesName(i)
		if nn := next.SeriesName(i); nn != name {
			return fmt.Errorf("series %d renamed (%q -> %q)", i, name, nn)
		}
		oa, na := old.SeriesAlphabet(i), next.SeriesAlphabet(i)
		if len(na) < len(oa) {
			return fmt.Errorf("series %q alphabet shrank", name)
		}
		for j, a := range oa {
			if na[j] != a {
				return fmt.Errorf("series %q alphabet renumbered at %d (%q -> %q)", name, j, a, na[j])
			}
		}
	}
	return nil
}

// Advance derives a handle over next — an Analysis of a database that
// extends this handle's in time — with the same split geometry and shard
// width. The new handle's first DSEQ access converts incrementally: the
// window prefix untouched by the appended samples is shared by pointer
// with this handle's memoized conversion (which stays fully usable for
// in-flight mines), and the L1 vertical index is patched rather than
// rebuilt. The NMI tables are not carried over — they depend on every
// sample, so next starts with fresh ones.
//
// The delta path is an optimization, never a semantic: when nothing is
// reusable (this handle never converted, a NumWindows geometry whose
// window length moved, or an append that interned new symbols out of
// prefix order) the new handle silently falls back to a full conversion,
// and results are byte-identical either way.
func (p *Prepared) Advance(next *Analysis) (*Prepared, error) {
	np, err := PrepareWith(next, p.split, p.shards)
	if err != nil {
		return nil, err
	}
	if err := extends(p.src, next.src); err != nil {
		return nil, fmt.Errorf("ftpm: Advance: new database does not extend the prepared one: %v", err)
	}
	// Link to the nearest generation with a completed conversion, so a
	// chain of mine-less appends neither accumulates retained generations
	// nor loses the last actually-built artifacts.
	anc := p
	for anc != nil {
		if _, ok := anc.seq.peek(); ok {
			break
		}
		anc = anc.peekPrev()
	}
	np.prev = anc
	return np, nil
}

// Stats snapshots the cumulative cache counters of the handle.
func (p *Prepared) Stats() PreparedStats {
	return PreparedStats{
		DSEQBuilds: p.dseqBuilds.Load(),
		DSEQHits:   p.dseqHits.Load(),
		NMIBuilds:  p.nmiBuilds.Load(),
		NMIHits:    p.nmiHits.Load(),
	}
}

// sequences returns the memoized DSEQ conversion, building it on first
// use: the sharded conversion (one shard at width 1) plus its prepared
// merge view. A handle created by Advance converts incrementally against
// its ancestor's memoized conversion when one exists (sharing the stable
// window prefix by pointer and patching the L1 index), and falls back to
// the full conversion otherwise.
func (p *Prepared) sequences() (*core.ShardedView, bool, error) {
	view, hit, err := p.seq.get(func() (*core.ShardedView, error) {
		var memo *core.ShardedView
		var prevEnd Time
		if prev := p.takePrev(); prev != nil {
			if m, ok := prev.seq.peek(); ok {
				memo, prevEnd = m, prev.src.End()
			}
		}
		if memo != nil && len(memo.Shards) == p.shards {
			shards, stable, err := events.ConvertShardsDelta(p.src, p.split, p.shards, memo.Shards, prevEnd)
			if err != nil {
				return nil, err
			}
			return core.PrepareShardsDelta(memo, shards, stable)
		}
		shards, err := events.ConvertShards(p.src, p.split, p.shards)
		if err != nil {
			return nil, err
		}
		return core.PrepareShards(shards)
	})
	if err != nil {
		return nil, hit, err
	}
	if hit {
		p.dseqHits.Add(1)
	} else {
		p.dseqBuilds.Add(1)
	}
	return view, hit, nil
}

// pairwise returns the memoized series-level NMI table of the shared
// Analysis, derived from its joints.
func (p *Prepared) pairwise() (*mi.Pairwise, bool, error) {
	pw, hit, err := p.an.pw.get(func() (*mi.Pairwise, error) {
		return p.an.sharedJoints().Pairwise(), nil
	})
	if err != nil {
		return nil, hit, err
	}
	if hit {
		p.nmiHits.Add(1)
	} else {
		p.nmiBuilds.Add(1)
	}
	return pw, hit, nil
}

// eventPairwise returns the memoized event-level NMI table of the shared
// Analysis, derived from its joints.
func (p *Prepared) eventPairwise() (*mi.EventPairwise, bool, error) {
	epw, hit, err := p.an.epw.get(func() (*mi.EventPairwise, error) {
		return p.an.sharedJoints().EventPairwise(), nil
	})
	if err != nil {
		return nil, hit, err
	}
	if hit {
		p.nmiHits.Add(1)
	} else {
		p.nmiBuilds.Add(1)
	}
	return epw, hit, nil
}

// analyze resolves the approximate options against the memoized pairwise
// tables: it derives µ (from Mu directly or from Density against the
// cached table) and installs the thresholded correlation graph into the
// mining config. It reports whether the NMI table came from cache. The
// selector is validated before any table access, so malformed options
// never trigger the O(n²) analysis.
func (p *Prepared) analyze(a *ApproxOptions, cfg *core.Config, out *Result) (bool, error) {
	if err := mi.ValidateSelector(a.Mu, a.Density); err != nil {
		// The façade's documented wording, kept stable across the
		// refactor (the internal error carries the "mi:" prefix).
		return false, fmt.Errorf("ftpm: ApproxOptions requires exactly one of Mu or Density")
	}
	if a.EventLevel {
		epw, hit, err := p.eventPairwise()
		if err != nil {
			return hit, err
		}
		mu, err := mi.ResolveMu(epw, a.Mu, a.Density)
		if err != nil {
			return hit, err
		}
		g, err := epw.Graph(mu)
		if err != nil {
			return hit, err
		}
		cfg.EventFilter = g
		out.EventGraph = g
		out.Mu = mu
		return hit, nil
	}
	pw, hit, err := p.pairwise()
	if err != nil {
		return hit, err
	}
	mu, err := mi.ResolveMu(pw, a.Mu, a.Density)
	if err != nil {
		return hit, err
	}
	g, err := pw.Graph(mu)
	if err != nil {
		return hit, err
	}
	cfg.Filter = g
	out.Graph = g
	out.Mu = mu
	return hit, nil
}

// Mine runs one FTPMfTS job against the prepared artifacts: E-HTPGM, or
// A-HTPGM when opt.Approx is set (series-level or event-level). Results
// are byte-identical to MineSymbolic with the same thresholds over the
// handle's geometry. The Prepared owns the window geometry and shard
// width: leave opt.WindowLength/NumWindows/Overlap/Shards zero, or set
// them to the prepared values — any other value is rejected rather than
// silently ignored. Result.Cache reports which artifacts the run reused.
//
// Cancelling ctx aborts the mining phase between verification units and
// returns ctx.Err(); a nil ctx is treated as context.Background().
func (p *Prepared) Mine(ctx context.Context, opt Options) (*Result, error) {
	if s := opt.splitOptions(); s != (SplitOptions{}) && s != p.split {
		return nil, fmt.Errorf("ftpm: Options geometry %+v conflicts with the prepared geometry %+v", s, p.split)
	}
	// Non-positive Shards means unset (Prepare clamps the same way, so
	// MineSymbolic with Shards <= 1 mines one shard).
	if opt.Shards > 0 && opt.Shards != p.shards {
		return nil, fmt.Errorf("ftpm: Options.Shards %d conflicts with the prepared shard width %d", opt.Shards, p.shards)
	}
	cfg := opt.coreConfig()
	out := &Result{}
	if a := opt.Approx; a != nil {
		hit, err := p.analyze(a, &cfg, out)
		if err != nil {
			return nil, err
		}
		out.Cache.NMI = hit
	}

	view, seqHit, err := p.sequences()
	if err != nil {
		return nil, err
	}
	out.Cache.DSEQ = seqHit
	out.DB = view.Merged

	res, err := core.MineShardedView(ctx, view, cfg)
	if err != nil {
		return nil, err
	}
	out.Singles = res.Singles
	out.Patterns = res.Patterns
	out.Stats = res.Stats
	return out, nil
}
