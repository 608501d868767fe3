package ftpm

import (
	"context"
	"fmt"
	"strings"

	"ftpm/internal/core"
	"ftpm/internal/temporal"
)

// ApproxOptions enables A-HTPGM (§V). Exactly one of Mu or Density selects
// the MI threshold.
type ApproxOptions struct {
	// Mu is the NMI threshold µ in (0,1] (Def 5.4).
	Mu float64
	// Density chooses µ via the expected correlation-graph density
	// (Def 5.6) instead: 0.6 keeps 60% of the possible edges.
	Density float64
	// EventLevel switches to event-granularity pruning — the paper's
	// stated future work (§VII): NMI is computed between event indicator
	// series and the threshold applies to individual event pairs instead
	// of whole series. Finer pruning, higher NMI setup cost (quadratic in
	// the number of events rather than series).
	EventLevel bool
}

// Options parameterizes an end-to-end mining run.
type Options struct {
	// MinSupport is the relative support threshold sigma in (0,1].
	MinSupport float64
	// MinConfidence is the confidence threshold delta in [0,1].
	MinConfidence float64

	// Epsilon is the relation buffer ε; MinOverlap the minimal Overlap
	// duration d_o (Defs 3.6-3.8). Zero values mean ε=0, d_o=1 tick.
	Epsilon    Duration
	MinOverlap Duration

	// TMax is the maximal pattern duration t_max (0 = unbounded within a
	// sequence window).
	TMax Duration
	// MaxPatternSize bounds the number of events per pattern (0 =
	// unbounded).
	MaxPatternSize int

	// Window geometry for MineSymbolic: either WindowLength (ticks) or
	// NumWindows, plus the overlap t_ov (§IV-B2). Ignored by Mine, which
	// takes an already-built SequenceDB.
	WindowLength Duration
	NumWindows   int
	Overlap      Duration

	// Approx, when non-nil, runs A-HTPGM instead of E-HTPGM.
	Approx *ApproxOptions

	// Shards partitions the sequence database round-robin into this many
	// shards (0 or 1 = one shard): the DSYB→DSEQ window cutting and the
	// cold L1 support scan then run per shard, and mining continues on
	// the merged view, with results byte-identical for every width. Only
	// honoured by MineSymbolic (Mine takes a prebuilt SequenceDB; use
	// MineSharded for prebuilt shards).
	Shards int

	// Pruning selects the E-HTPGM pruning ablation; the zero value
	// applies all pruning techniques.
	Pruning PruningMode
	// KeepGraph retains the Hierarchical Pattern Graph on the result.
	KeepGraph bool
	// Workers shards candidate verification over goroutines (0 or 1 =
	// serial); results are identical to serial runs.
	Workers int
	// WorkersFunc, when non-nil, renegotiates the worker count at each
	// level boundary of the mining loop: it is called on the mining
	// goroutine with the level about to be mined and its return value
	// replaces the effective worker count for that level (negative keeps
	// the current grant). Results are byte-identical across any sequence
	// of grants; schedulers use this to rebalance a running job's
	// parallelism as other jobs arrive or finish.
	WorkersFunc func(level int) int

	// Progress, when non-nil, is called on the mining goroutine after each
	// level of the pattern graph completes, with that level's counters.
	// Long-running callers (e.g. the ftpm-serve job manager) use it to
	// report per-level progress; the callback must return quickly.
	Progress func(LevelStats)
}

func (o Options) coreConfig() core.Config {
	rel := temporal.Config{}
	if o.Epsilon != 0 || o.MinOverlap != 0 {
		rel = temporal.Config{Epsilon: o.Epsilon, MinOverlap: o.MinOverlap}
		if rel.MinOverlap == 0 {
			rel.MinOverlap = 1
		}
	}
	return core.Config{
		MinSupport:    o.MinSupport,
		MinConfidence: o.MinConfidence,
		Relations:     rel,
		TMax:          o.TMax,
		MaxK:          o.MaxPatternSize,
		Pruning:       o.Pruning,
		KeepGraph:     o.KeepGraph,
		Workers:       o.Workers,
		WorkersFunc:   o.WorkersFunc,
		Progress:      o.Progress,
	}
}

func (o Options) splitOptions() SplitOptions {
	return SplitOptions{WindowLength: o.WindowLength, NumWindows: o.NumWindows, Overlap: o.Overlap}
}

// Result is the outcome of a mining run.
type Result struct {
	// Singles lists the frequent single events.
	Singles []EventInfo
	// Patterns lists the frequent temporal patterns (k >= 2) in
	// deterministic order.
	Patterns []PatternInfo
	// Stats carries the per-level mining counters.
	Stats Stats
	// DB is the temporal sequence database that was mined; Describe uses
	// it to render sample occurrences.
	DB *SequenceDB
	// Graph is the correlation graph of an A-HTPGM run (nil for exact),
	// and Mu the MI threshold used. EventGraph is set instead of Graph
	// when event-level pruning was requested.
	Graph      *CorrelationGraph
	EventGraph *EventCorrelationGraph
	Mu         float64
	// Cache reports which prepared-dataset artifacts this run reused; it
	// is all-false for runs that built everything themselves (any first
	// run over a Prepared, hence every plain MineSymbolic call).
	Cache CacheInfo
}

// Mine runs E-HTPGM (exact) over an already-built sequence database.
// Options.Approx is rejected here — A-HTPGM needs the symbolic database
// for its mutual-information analysis; use MineSymbolic.
//
// Cancelling ctx aborts the run between verification units and returns
// ctx.Err(); a nil ctx is treated as context.Background().
func Mine(ctx context.Context, db *SequenceDB, opt Options) (*Result, error) {
	if opt.Approx != nil {
		return nil, fmt.Errorf("ftpm: Mine is exact-only; use MineSymbolic for A-HTPGM")
	}
	res, err := core.Mine(ctx, db, opt.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Result{Singles: res.Singles, Patterns: res.Patterns, Stats: res.Stats, DB: db}, nil
}

// MineSharded runs E-HTPGM (exact) over an already-sharded sequence
// database — shards as produced by BuildShardedSequences or
// SequenceDB.ShardRoundRobin, sharing one vocabulary. The L1 support
// scan runs per shard, and later levels verify candidates over the merged
// database; the mined patterns and supports are byte-identical to Mine
// over the merged database. Options.Approx is rejected here for the same reason as in
// Mine; use MineSymbolic with Options.Shards for sharded A-HTPGM.
func MineSharded(ctx context.Context, shards []*SequenceDB, opt Options) (*Result, error) {
	if opt.Approx != nil {
		return nil, fmt.Errorf("ftpm: MineSharded is exact-only; use MineSymbolic with Options.Shards for A-HTPGM")
	}
	res, merged, err := core.MineSharded(ctx, shards, opt.coreConfig())
	if err != nil {
		return nil, err
	}
	return &Result{Singles: res.Singles, Patterns: res.Patterns, Stats: res.Stats, DB: merged}, nil
}

// MineSymbolic runs the full FTPMfTS process on a symbolic database:
// conversion to DSEQ followed by E-HTPGM, or A-HTPGM when Options.Approx
// is set. It is a thin wrapper over a one-shot Prepared; callers mining
// the same database and geometry repeatedly should Prepare once and call
// Prepared.Mine per threshold setting to reuse the conversion and NMI
// artifacts.
//
// Cancelling ctx aborts the mining phase between verification units and
// returns ctx.Err(); a nil ctx is treated as context.Background().
func MineSymbolic(ctx context.Context, sdb *SymbolicDB, opt Options) (*Result, error) {
	p, err := Prepare(sdb, opt.splitOptions(), opt.Shards)
	if err != nil {
		return nil, err
	}
	return p.Mine(ctx, opt)
}

// Accuracy returns the fraction of the exact result's patterns that the
// approximate result retained (Table IX's metric).
func Accuracy(approx, exact *Result) float64 {
	return core.Accuracy(&core.Result{Patterns: approx.Patterns}, &core.Result{Patterns: exact.Patterns})
}

// Describe renders a mined pattern with event names and, when a sample
// occurrence is available, the concrete intervals — the paper's Table VI
// style, e.g. "([06:00,07:00] Kitchen=On) ≽ ([06:01,06:45] Toaster=On)".
func (r *Result) Describe(p PatternInfo) string {
	if r.DB == nil || p.SampleSeq < 0 || p.SampleSeq >= len(r.DB.Sequences) || len(p.Sample) != p.Pattern.K() {
		return p.Pattern.FormatChain(r.DB.Vocab)
	}
	seq := r.DB.Sequences[p.SampleSeq]
	var sb strings.Builder
	for i, e := range p.Pattern.Events {
		if i > 0 {
			sb.WriteString(" " + p.Pattern.Relation(i-1, i).Symbol() + " ")
		}
		ins := seq.Instances[p.Sample[i]]
		fmt.Fprintf(&sb, "([%s,%s] %s)", clockOf(ins.Start), clockOf(ins.End), r.DB.Vocab.Name(e))
	}
	return sb.String()
}

// clockOf renders ticks as hh:mm within the day (ticks are treated as
// seconds); timestamps beyond the first day carry a day prefix so
// boundary-clipped intervals stay unambiguous.
func clockOf(t Time) string {
	day := t / 86400
	t %= 86400
	if t < 0 {
		t += 86400
		day--
	}
	if day > 0 {
		return fmt.Sprintf("d%d %02d:%02d", day, t/3600, (t%3600)/60)
	}
	return fmt.Sprintf("%02d:%02d", t/3600, (t%3600)/60)
}

// Maximal returns the patterns not contained in any other mined pattern —
// the compact frontier of the result (every pruned pattern is implied by
// a maximal one).
func (r *Result) Maximal() []PatternInfo {
	cr := core.Result{Patterns: r.Patterns}
	return cr.Maximal()
}
