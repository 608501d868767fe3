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
// single shard) and everything works on the merged, global-order view:
// L1 reads the view's vertical index (per event, the sequences and
// instances containing it), L2 verifies each candidate pair over the
// merged view and levels k >= 3 extend its stored occurrences, both with
// candidate-level parallelism. Thresholds (minsup, minconf) are evaluated
// exactly once, on global supports, so a pattern that is locally
// infrequent in every shard but globally frequent is still found and
// nothing is double-counted.
//
// The invariant backing it: every sequence belongs to exactly one shard,
// and a bitmap bit, occurrence tuple, or sample is keyed by the global
// sequence index, so the result is byte-identical for every shard width.

// ShardedView is the prepared state of a mining run: the shards, their
// merged (global-order) database, and, once the first mine over it has
// run, its vertical index. Building it — validation and the round-robin merge — is
// O(sequences) work that depends only on the shard set, so one view can
// back any number of MineShardedView runs over the same data (the
// prepared-dataset engine caches it per window geometry).
type ShardedView struct {
	// Shards is the validated shard set the view was built from.
	Shards []*events.DB
	// Merged is the global-order reconstruction of the shards; sample
	// occurrences of mined patterns reference its sequence indexes.
	Merged *events.DB

	// l1 is the memoized vertical index, indexed by EventID: each event's
	// ascending global sequences and its instance indexes in each. The
	// first L1 pass over the view builds and installs it (offerL1); later
	// runs — and delta views derived from this one (PrepareShardsDelta) —
	// read it instead of re-walking every sequence. Every mining structure
	// above L1 derives from it: event bitmaps and supports at L1, the
	// instance lookups of L2 and Lk verification. The slice and its lists
	// are immutable once published.
	l1mu  sync.Mutex
	l1    []vlist
	l1set atomic.Bool
}

// vlist is one event's vertical list: the ascending global indexes of the
// sequences containing it and, for each, the event's instance indexes in
// that sequence (a view of the sequence's own index).
type vlist struct {
	seqs []int32
	inst [][]int32
}

// seek advances the cursor *i to sequence s and returns the event's
// instances there. Successive calls must pass ascending sequences, each
// contained in the list; a node bitmap guarantees this, being the AND of
// event bitmaps built from these lists.
func (l *vlist) seek(i *int, s int32) []int32 {
	for l.seqs[*i] < s {
		*i++
	}
	return l.inst[*i]
}

// l1Peek returns the memoized vertical index, if one has been installed.
// The returned slice must not be mutated.
func (v *ShardedView) l1Peek() ([]vlist, bool) {
	if !v.l1set.Load() {
		return nil, false
	}
	return v.l1, true
}

// offerL1 installs a completed vertical index; only the first offer wins.
func (v *ShardedView) offerL1(lists []vlist) {
	v.l1mu.Lock()
	defer v.l1mu.Unlock()
	if v.l1 == nil {
		v.l1 = lists
		v.l1set.Store(true)
	}
}

// scanL1Lists builds the vertical index of db: the lists of prev (already
// cut to sequences below from) followed by every sequence of db at global
// index >= from. Scanning in index order keeps the lists ascending. All
// lists share two backing arrays sized by a counting pass, so a cold build
// costs a handful of allocations; prev's arrays are only read.
func scanL1Lists(db *events.DB, from int, prev []vlist) []vlist {
	out := make([]vlist, db.Vocab.Size())
	size := make([]int, len(out))
	for e, l := range prev {
		size[e] = len(l.seqs)
	}
	for _, seq := range db.Sequences[from:] {
		for _, e := range seq.Events() {
			size[e]++
		}
	}
	total := 0
	for _, n := range size {
		total += n
	}
	seqs, inst := make([]int32, total), make([][]int32, total)
	off := 0
	for e, n := range size {
		out[e] = vlist{seqs: seqs[off : off : off+n], inst: inst[off : off : off+n]}
		if e < len(prev) {
			out[e].seqs = append(out[e].seqs, prev[e].seqs...)
			out[e].inst = append(out[e].inst, prev[e].inst...)
		}
		off += n
	}
	for g := from; g < db.Size(); g++ {
		seq := db.Sequences[g]
		for i, e := range seq.Events() {
			l := &out[e]
			l.seqs = append(l.seqs, int32(g))
			l.inst = append(l.inst, seq.InstancesAt(i))
		}
	}
	return out
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
	merged, _, err := events.MergeShards(shards)
	if err != nil {
		return nil, err
	}
	if merged.Size() == 0 {
		return nil, fmt.Errorf("core: empty sequence database")
	}
	return &ShardedView{Shards: shards, Merged: merged}, nil
}

// PrepareShardsDelta builds the ShardedView of a shard set that extends a
// previous one: the first stable global sequences (window order == merged
// order under the round-robin discipline) are shared by pointer with prev,
// everything after them is new or re-cut. When prev carries a completed L1
// index, the new view starts with that index patched instead of cold: the
// per-event lists are truncated to entries below stable and only the tail
// sequences are rescanned (scanL1Lists copies the kept prefixes, so
// prev's lists stay intact), and the next mine's L1 pass reads the
// patched index. Without a usable prev index the view is simply cold and the
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
	kept := make([]vlist, len(pl))
	for e, l := range pl {
		cut := sort.Search(len(l.seqs), func(i int) bool { return l.seqs[i] >= int32(stable) })
		kept[e] = vlist{seqs: l.seqs[:cut], inst: l.inst[:cut]}
	}
	v.l1 = scanL1Lists(v.Merged, stable, kept)
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
	return newMiner(ctx, v, cfg).mineAll(ctx)
}

// newMiner sets up the run state of one mine over v.
func newMiner(ctx context.Context, v *ShardedView, cfg Config) *miner {
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
	return m
}

// scanSingles is the L1 support scan. It takes the view's vertical index
// — memoized, or built now from the merged sequences and installed — and
// derives every event's support bitmap from it, so a node bitmap can
// never name a sequence that is missing from its events' lists. The scan
// is one walk over each sequence's distinct events, which its own index
// already lists, so it runs serially; the second mine over any view, and
// the first mine after an append (via PrepareShardsDelta's patched
// index), skip even that walk.
func (m *miner) scanSingles() {
	lists, ok := m.view.l1Peek()
	if !ok {
		lists = scanL1Lists(m.db, 0, nil)
		m.view.offerL1(lists)
	}
	m.l1 = lists
	m.eventBm = make([]*bitmap.Bitmap, len(lists))
	for e, l := range lists {
		bm := bitmap.New(m.n)
		for _, g := range l.seqs {
			bm.Set(int(g))
		}
		m.eventBm[e] = bm
	}
}
