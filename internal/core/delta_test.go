package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ftpm/internal/events"
	"ftpm/internal/timeseries"
)

// deltaSDB builds a seeded symbolic database of four series over n
// samples for the delta-preparation tests.
func deltaSDB(t *testing.T, seed int64, n int) *timeseries.SymbolicDB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := []string{"W", "X", "Y", "Z"}
	series := make([]*timeseries.SymbolicSeries, len(names))
	for si, name := range names {
		syms := make([]int, n)
		for i := range syms {
			if (i+si)%(5+si) < 2+si%2 || rng.Intn(11) == 0 {
				syms[i] = 1
			}
		}
		series[si] = &timeseries.SymbolicSeries{
			Name: name, Start: 0, Step: 10,
			Alphabet: []string{"Off", "On"}, Symbols: syms,
		}
	}
	db, err := timeseries.NewSymbolicDB(series...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func truncateSDB(t *testing.T, db *timeseries.SymbolicDB, n int) *timeseries.SymbolicDB {
	t.Helper()
	series := make([]*timeseries.SymbolicSeries, len(db.Series))
	for i, s := range db.Series {
		series[i] = &timeseries.SymbolicSeries{
			Name: s.Name, Start: s.Start, Step: s.Step,
			Alphabet: append([]string(nil), s.Alphabet...),
			Symbols:  append([]int(nil), s.Symbols[:n]...),
		}
	}
	out, err := timeseries.NewSymbolicDB(series...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPrepareShardsDeltaMatchesFresh is the L1-memo patching property
// test: mining a delta-prepared view (built from a previous view whose
// memo a completed run installed) yields results byte-identical to
// mining a cold, freshly prepared view of the same shards — across shard
// counts and worker counts.
func TestPrepareShardsDeltaMatchesFresh(t *testing.T) {
	full := deltaSDB(t, 11, 360)
	base := truncateSDB(t, full, 240)
	opt := events.SplitOptions{WindowLength: 200, Overlap: 100}
	cfg := Config{MinSupport: 0.3, MinConfidence: 0.2, MaxK: 3}

	for _, k := range []int{1, 2, 7} {
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			label := fmt.Sprintf("k=%d workers=%d", k, workers)

			prevShards, err := events.ConvertShards(base, opt, k)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			prevView, err := PrepareShards(prevShards)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// A completed mine installs the L1 memo on the view.
			if _, err := MineShardedView(context.Background(), prevView, cfg); err != nil {
				t.Fatalf("%s: base mine: %v", label, err)
			}
			if _, ok := prevView.l1Peek(); !ok {
				t.Fatalf("%s: completed mine did not install the L1 memo", label)
			}

			shards, stable, err := events.ConvertShardsDelta(full, opt, k, prevShards, base.End())
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if stable == 0 {
				t.Fatalf("%s: expected a non-empty stable prefix", label)
			}
			deltaView, err := PrepareShardsDelta(prevView, shards, stable)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}

			// The patched index must equal a full scan of the merged database.
			gotL1, ok := deltaView.l1Peek()
			if !ok {
				t.Fatalf("%s: delta view did not inherit a patched L1 index", label)
			}
			wantL1 := scanL1Lists(deltaView.Merged, 0, nil)
			if !reflect.DeepEqual(gotL1, wantL1) {
				t.Fatalf("%s: patched L1 index differs from a full scan", label)
			}

			freshView, err := PrepareShards(shards)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := MineShardedView(context.Background(), freshView, cfg)
			if err != nil {
				t.Fatalf("%s: fresh mine: %v", label, err)
			}
			got, err := MineShardedView(context.Background(), deltaView, cfg)
			if err != nil {
				t.Fatalf("%s: delta mine: %v", label, err)
			}
			sameResults(t, label, got, want)
		}
	}
}

// TestPrepareShardsDeltaColdPrev pins the degraded paths: a nil prev, a
// memo-less prev, and an out-of-range stable count all yield a plain
// (cold) view that still mines correctly.
func TestPrepareShardsDeltaColdPrev(t *testing.T) {
	sdb := deltaSDB(t, 12, 240)
	opt := events.SplitOptions{WindowLength: 200, Overlap: 100}
	shards, err := events.ConvertShards(sdb, opt, 2)
	if err != nil {
		t.Fatal(err)
	}
	coldPrev, err := PrepareShards(shards) // never mined: no memo
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		prev   *ShardedView
		stable int
	}{
		{"nil-prev", nil, 3},
		{"memo-less-prev", coldPrev, 3},
		{"zero-stable", coldPrev, 0},
		{"stable-past-end", coldPrev, 1 << 20},
	} {
		v, err := PrepareShardsDelta(tc.prev, shards, tc.stable)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, ok := v.l1Peek(); ok {
			t.Fatalf("%s: expected a cold view, got a patched memo", tc.name)
		}
		if _, err := MineShardedView(context.Background(), v, Config{MinSupport: 0.4, MaxK: 2}); err != nil {
			t.Fatalf("%s: mine: %v", tc.name, err)
		}
	}
}

// TestL1MemoRepeatMine checks the warm-path equivalence on a single
// view: the second mine over a view (served from the memo) returns
// byte-identical results to the first (which scanned cold).
func TestL1MemoRepeatMine(t *testing.T) {
	sdb := deltaSDB(t, 13, 300)
	opt := events.SplitOptions{WindowLength: 200, Overlap: 100}
	shards, err := events.ConvertShards(sdb, opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := PrepareShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinSupport: 0.3, MinConfidence: 0.1, MaxK: 3, Workers: 2}
	cold, err := MineShardedView(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.l1Peek(); !ok {
		t.Fatal("first mine did not install the L1 memo")
	}
	warm, err := MineShardedView(context.Background(), v, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "memo-hit", warm, cold)
}

// TestOfferL1FirstWins pins the memo's install discipline: the first
// completed offer is kept, later offers are dropped.
func TestOfferL1FirstWins(t *testing.T) {
	v := &ShardedView{}
	first := []vlist{{seqs: []int32{1, 2}}}
	v.offerL1(first)
	v.offerL1([]vlist{{seqs: []int32{9}}})
	got, ok := v.l1Peek()
	if !ok || !reflect.DeepEqual(got, first) {
		t.Fatalf("memo = %v (ok=%v), want first offer kept", got, ok)
	}
}
