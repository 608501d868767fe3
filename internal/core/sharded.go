package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/hpg"
)

// This file implements the one mining path: every run mines a
// ShardedView. The sequence database arrives partitioned into K shards
// (round-robin over sequences, see events.MergeShards; Mine passes a
// single shard), the L1 support scan runs shard-local, and everything
// after it works on the merged, global-order view: L2 verifies each
// candidate pair over the merged view and levels k >= 3 extend its
// stored occurrences, both with candidate-level parallelism. Thresholds
// (minsup, minconf) are evaluated exactly once, on global supports, so a
// pattern that is locally infrequent in every shard but globally frequent
// is still found and nothing is double-counted.
//
// The invariant backing it: every sequence belongs to exactly one shard,
// and a bitmap bit, occurrence tuple, or sample is keyed by the global
// sequence index. Merging the per-shard L1 scans is therefore a disjoint
// union, and the result is byte-identical for every shard width.

// ShardedView is the prepared state of a mining run: the shards, their
// merged (global-order) database, and the global index of every shard
// sequence. Building it — validation and the round-robin merge — is
// O(sequences) work that depends only on the shard set, so one view can
// back any number of MineShardedView runs over the same data (the
// prepared-dataset engine caches it per window geometry).
type ShardedView struct {
	// Shards is the validated shard set the view was built from.
	Shards []*events.DB
	// Merged is the global-order reconstruction of the shards; sample
	// occurrences of mined patterns reference its sequence indexes.
	Merged *events.DB

	globalIdx [][]int

	// l1 is the memoized L1 occurrence index: per event, the ascending
	// global indexes of the sequences containing it. The first completed
	// scan over the view installs it (offerL1); later runs — and delta
	// views derived from this one (PrepareShardsDelta) — rebuild the L1
	// bitmaps from it instead of re-walking every sequence. The map and
	// its lists are immutable once published.
	l1mu  sync.Mutex
	l1    map[events.EventID][]int32
	l1set atomic.Bool
}

// l1Peek returns the memoized L1 index, if a completed scan has been
// installed. The returned map must not be mutated.
func (v *ShardedView) l1Peek() (map[events.EventID][]int32, bool) {
	if !v.l1set.Load() {
		return nil, false
	}
	return v.l1, true
}

// offerL1 installs a completed L1 scan; only the first offer wins.
func (v *ShardedView) offerL1(lists map[events.EventID][]int32) {
	v.l1mu.Lock()
	defer v.l1mu.Unlock()
	if v.l1 == nil {
		v.l1 = lists
		v.l1set.Store(true)
	}
}

// scanL1Lists appends, for every sequence of db at global index >= from,
// the index to each contained event's list. Scanning in index order keeps
// the lists ascending.
func scanL1Lists(db *events.DB, from int, into map[events.EventID][]int32) map[events.EventID][]int32 {
	if into == nil {
		into = make(map[events.EventID][]int32)
	}
	for i := from; i < db.Size(); i++ {
		for _, e := range db.Sequences[i].Events() {
			into[e] = append(into[e], int32(i))
		}
	}
	return into
}

// SeqCounts returns the per-shard sequence counts.
func (v *ShardedView) SeqCounts() []int {
	out := make([]int, len(v.Shards))
	for i, sh := range v.Shards {
		out[i] = sh.Size()
	}
	return out
}

// PrepareShards validates a shard set and builds its ShardedView. The
// shards must share one vocabulary (events.ConvertShards and
// events.ShardRoundRobin guarantee this) and carry positional sequence
// ids; empty shards are allowed.
func PrepareShards(shards []*events.DB) (*ShardedView, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: no shards")
	}
	for s, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("core: shard %d is nil", s)
		}
		for i, seq := range sh.Sequences {
			if seq.ID != i {
				return nil, fmt.Errorf("core: shard %d sequence %d carries id %d; ids must be positional", s, i, seq.ID)
			}
		}
	}
	merged, globalIdx, err := events.MergeShards(shards)
	if err != nil {
		return nil, err
	}
	if merged.Size() == 0 {
		return nil, fmt.Errorf("core: empty sequence database")
	}
	return &ShardedView{Shards: shards, Merged: merged, globalIdx: globalIdx}, nil
}

// PrepareShardsDelta builds the ShardedView of a shard set that extends a
// previous one: the first stable global sequences (window order == merged
// order under the round-robin discipline) are shared by pointer with prev,
// everything after them is new or re-cut. When prev carries a completed L1
// index, the new view starts with that index patched instead of cold: the
// per-event lists are truncated to entries below stable (copy-on-append,
// prev's lists stay intact) and only the tail sequences are rescanned, so
// the next mine's L1 pass re-verifies just the sequences the append
// touched. Without a usable prev index the view is simply cold and the
// next mine scans — and memoizes — from scratch. Either way the resulting
// supports are byte-identical to a full PrepareShards + scan.
func PrepareShardsDelta(prev *ShardedView, shards []*events.DB, stable int) (*ShardedView, error) {
	v, err := PrepareShards(shards)
	if err != nil {
		return nil, err
	}
	if prev == nil || stable <= 0 || stable > v.Merged.Size() {
		return v, nil
	}
	pl, ok := prev.l1Peek()
	if !ok {
		return v, nil
	}
	lists := make(map[events.EventID][]int32, len(pl))
	for e, idx := range pl {
		cut := sort.Search(len(idx), func(i int) bool { return idx[i] >= int32(stable) })
		if cut == 0 {
			continue
		}
		// Full slice expression: appending the rescanned tail must not
		// grow into prev's backing array.
		lists[e] = idx[:cut:cut]
	}
	v.l1 = scanL1Lists(v.Merged, stable, lists)
	v.l1set.Store(true)
	return v, nil
}

// MineSharded runs HTPGM over a sharded temporal sequence database,
// returning the result — byte-identical to Mine over the merged database
// — together with the merged database itself. It prepares the shard view
// on every call; callers mining the same shard set repeatedly should
// PrepareShards once and use MineShardedView.
//
// Cancellation behaves exactly like Mine: workers stop between
// verification units and MineSharded returns ctx.Err().
func MineSharded(ctx context.Context, shards []*events.DB, cfg Config) (*Result, *events.DB, error) {
	// Validate before preparing: the merge walks every sequence, which a
	// bad config should not pay for.
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	v, err := PrepareShards(shards)
	if err != nil {
		return nil, nil, err
	}
	res, err := MineShardedView(ctx, v, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, v.Merged, nil
}

// MineShardedView runs HTPGM over a prepared shard view. The view is
// read-only during the run (apart from installing its L1 memo), so
// concurrent runs may share one view.
func MineShardedView(ctx context.Context, v *ShardedView, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	m := &miner{
		db:      v.Merged,
		view:    v,
		cfg:     cfg,
		rel:     cfg.relations(),
		n:       v.Merged.Size(),
		minSupp: cfg.AbsoluteSupport(v.Merged.Size()),
		graph:   &hpg.Graph{},
		done:    ctx.Done(),
	}
	m.stats.Sequences = m.n
	m.stats.AbsoluteSupport = m.minSupp
	if len(v.Shards) > 1 {
		m.stats.Shards = len(v.Shards)
		m.stats.ShardSequences = v.SeqCounts()
	}
	return m.mineAll(ctx)
}

// scanSingles is the L1 support scan: it builds the support bitmap of
// every vocabulary event. Each shard scans only its own sequences, in
// parallel, and returns per event the global indexes of the sequences
// containing it (bounded by the shard's own size — full-width bitmaps per
// shard would multiply the transient L1 memory by K). The serial merge
// sets the bits in shard order; a sequence lives in exactly one shard, so
// the merge is a disjoint union.
//
// The view's L1 index memo short-circuits the scan: when a previous run
// (or a delta preparation) installed the per-event occurrence lists, the
// bitmaps rebuild directly from them. A cold scan installs the memo on
// completion, so the second mine over any view — and the first mine after
// an append, via PrepareShardsDelta's patched index — skips the walk.
func (m *miner) scanSingles() {
	vocabSize := m.db.Vocab.Size()
	m.eventSupp = make(map[events.EventID]int, vocabSize)
	m.eventBm = make(map[events.EventID]*bitmap.Bitmap, vocabSize)

	if lists, ok := m.view.l1Peek(); ok {
		for id := 0; id < vocabSize; id++ {
			e := events.EventID(id)
			idx := lists[e]
			bm := bitmap.New(m.n)
			for _, g := range idx {
				bm.Set(int(g))
			}
			m.eventBm[e] = bm
			// One list entry per containing sequence, so the length is
			// the support.
			m.eventSupp[e] = len(idx)
		}
		return
	}

	shardIdx := make([]int, len(m.view.Shards))
	for i := range shardIdx {
		shardIdx[i] = i
	}
	// hit records that global sequence g contains event e.
	type hit struct {
		e events.EventID
		g int32
	}
	partials := runParallel(m.done, m.workers(), &m.scrPool, shardIdx, func(_ *scratch, s int) []hit {
		var p []hit
		for j, seq := range m.view.Shards[s].Sequences {
			g := int32(m.view.globalIdx[s][j])
			for _, e := range seq.Events() {
				p = append(p, hit{e, g})
			}
		}
		return p
	})

	for id := 0; id < vocabSize; id++ {
		m.eventBm[events.EventID(id)] = bitmap.New(m.n)
	}
	for _, p := range partials {
		for _, h := range p {
			m.eventBm[h.e].Set(int(h.g))
		}
	}
	total := 0
	for id := 0; id < vocabSize; id++ {
		e := events.EventID(id)
		m.eventSupp[e] = m.eventBm[e].Count()
		total += m.eventSupp[e]
	}

	// Memoize the completed scan on the view. A cancelled runParallel may
	// have produced partial results; cancellation closes done permanently,
	// so seeing it still open here proves the scan ran to completion.
	select {
	case <-m.done:
		return
	default:
	}
	// All lists share one backing array; each is capped at its own length,
	// so appending to one (PrepareShardsDelta) copies instead of growing
	// into its neighbour.
	lists := make(map[events.EventID][]int32, vocabSize)
	backing := make([]int32, 0, total)
	for id := 0; id < vocabSize; id++ {
		e := events.EventID(id)
		if m.eventSupp[e] > 0 {
			from := len(backing)
			backing = m.eventBm[e].AppendIndices(backing)
			lists[e] = backing[from:len(backing):len(backing)]
		}
	}
	m.view.offerL1(lists)
}
