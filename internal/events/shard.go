package events

import (
	"fmt"
	"sync"

	"ftpm/internal/timeseries"
)

// This file implements the sharded view of the temporal sequence database:
// a dataset partitioned round-robin over its sequences into K independent
// shards, following the data-partitioning approach of the distributed
// HTPGM variant. Sequences are the unit of work everywhere in the miner
// (supports are per-sequence bits), so a partition by sequence keeps
// per-shard event lists independent until merge.
//
// The invariant connecting the three entry points: global sequence i lives
// in shard i%K at local position i/K. ShardRoundRobin establishes it,
// ConvertShards produces shards that already satisfy it, and MergeShards
// inverts it — merging shards of sizes differing by at most one
// reconstructs the exact global sequence order, so mining a sharded
// database yields byte-identical results to mining the unsharded one.

// ShardRoundRobin partitions the database into k shards by round-robin
// over sequences. Shards share the vocabulary; sequences are shallow
// copies re-indexed with positional local ids (the miner requires
// positional ids). k may exceed the sequence count, in which case the
// trailing shards are empty.
func (db *DB) ShardRoundRobin(k int) ([]*DB, error) {
	if k <= 0 {
		return nil, fmt.Errorf("events: shard count must be positive, got %d", k)
	}
	shards := make([]*DB, k)
	for s := range shards {
		shards[s] = &DB{Vocab: db.Vocab}
	}
	for i, seq := range db.Sequences {
		sh := shards[i%k]
		cp := *seq
		cp.ID = len(sh.Sequences)
		sh.Sequences = append(sh.Sequences, &cp)
	}
	return shards, nil
}

// MergeShards reassembles sharded databases into one global database by
// round-robin interleave: round r takes the r-th sequence of every
// non-exhausted shard, in shard order. It returns the merged database and,
// per shard, the global index of each local sequence. All shards must
// share one vocabulary instance; empty shards are allowed. Sequences are
// shallow copies re-indexed positionally — instance data is shared with
// the shards, never duplicated. A sequence whose id already equals its
// global index (every sequence of a single shard with positional ids) is
// shared as is: sequences are immutable after construction.
func MergeShards(shards []*DB) (*DB, [][]int, error) {
	if len(shards) == 0 {
		return nil, nil, fmt.Errorf("events: no shards to merge")
	}
	var vocab *Vocab
	maxLen := 0
	for _, sh := range shards {
		if sh == nil {
			return nil, nil, fmt.Errorf("events: nil shard")
		}
		if vocab == nil {
			vocab = sh.Vocab
		} else if sh.Vocab != vocab {
			return nil, nil, fmt.Errorf("events: shards must share one vocabulary")
		}
		if len(sh.Sequences) > maxLen {
			maxLen = len(sh.Sequences)
		}
	}
	if vocab == nil {
		return nil, nil, fmt.Errorf("events: shards carry no vocabulary")
	}
	out := &DB{Vocab: vocab}
	globalIdx := make([][]int, len(shards))
	for s, sh := range shards {
		globalIdx[s] = make([]int, len(sh.Sequences))
	}
	for r := 0; r < maxLen; r++ {
		for s, sh := range shards {
			if r >= len(sh.Sequences) {
				continue
			}
			seq := sh.Sequences[r]
			if g := len(out.Sequences); seq.ID != g {
				cp := *seq
				cp.ID = g
				seq = &cp
			}
			globalIdx[s][r] = seq.ID
			out.Sequences = append(out.Sequences, seq)
		}
	}
	return out, globalIdx, nil
}

// ConvertShards converts a symbolic database into K round-robin shards of
// the temporal sequence database: window i of the split goes to shard i%K.
// The symbol runs are extracted once (one shared vocabulary); the window
// cutting — the expensive part: clipping every run against every window
// and sorting the resulting instances — runs concurrently, one goroutine
// per shard. ConvertShards(db, opt, 1) is equivalent to Convert(db, opt),
// and MergeShards applied to the result reconstructs Convert's sequence
// order exactly.
func ConvertShards(src timeseries.SymbolSource, opt SplitOptions, k int) ([]*DB, error) {
	if k <= 0 {
		return nil, fmt.Errorf("events: shard count must be positive, got %d", k)
	}
	w, err := opt.resolve(src)
	if err != nil {
		return nil, err
	}

	vocab, all := buildRuns(src)
	windows := windowsOf(src, w, opt.Overlap)

	shards := make([]*DB, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		sh := &DB{Vocab: vocab}
		shards[s] = sh
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(windows); i += k {
				sh.Sequences = append(sh.Sequences, cutWindow(len(sh.Sequences), windows[i], all))
			}
		}(s)
	}
	wg.Wait()
	return shards, nil
}
