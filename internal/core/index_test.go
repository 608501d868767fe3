package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ftpm/internal/events"
	"ftpm/internal/hpg"
	"ftpm/internal/temporal"
	"ftpm/internal/timeseries"
)

// checkVerticalIndex compares the view's installed vertical index with a
// brute-force build over its merged sequences: per vocabulary event, the
// ascending sequences containing it and its instances in each.
func checkVerticalIndex(t *testing.T, label string, v *ShardedView) {
	t.Helper()
	got, ok := v.l1Peek()
	if !ok {
		t.Fatalf("%s: no vertical index installed", label)
	}
	if len(got) != v.Merged.Vocab.Size() {
		t.Fatalf("%s: index covers %d events, vocabulary has %d", label, len(got), v.Merged.Vocab.Size())
	}
	for id := range got {
		e := events.EventID(id)
		var want vlist
		for g, seq := range v.Merged.Sequences {
			if idx := seq.InstancesOf(e); len(idx) > 0 {
				want.seqs = append(want.seqs, int32(g))
				want.inst = append(want.inst, idx)
			}
		}
		if !reflect.DeepEqual(got[id], want) {
			t.Fatalf("%s: event %d list = %v, want %v", label, id, got[id], want)
		}
	}
}

// TestVerticalIndexMatchesBruteForce checks the vertical index after a
// cold scan, after a memo hit, and after a delta preparation, for several
// shard widths.
func TestVerticalIndexMatchesBruteForce(t *testing.T) {
	full := deltaSDB(t, 21, 360)
	base := truncateSDB(t, full, 240)
	opt := events.SplitOptions{WindowLength: 200, Overlap: 100}
	cfg := Config{MinSupport: 0.3, MinConfidence: 0.2, MaxK: 3, Workers: 2}

	for _, k := range []int{1, 2, 7} {
		label := fmt.Sprintf("k=%d", k)
		prevShards, err := events.ConvertShards(base, opt, k)
		if err != nil {
			t.Fatal(err)
		}
		v, err := PrepareShards(prevShards)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := MineShardedView(context.Background(), v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkVerticalIndex(t, label+" cold", v)

		warm, err := MineShardedView(context.Background(), v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkVerticalIndex(t, label+" memo hit", v)
		sameResults(t, label+" memo hit", warm, cold)

		shards, stable, err := events.ConvertShardsDelta(full, opt, k, prevShards, base.End())
		if err != nil {
			t.Fatal(err)
		}
		dv, err := PrepareShardsDelta(v, shards, stable)
		if err != nil {
			t.Fatal(err)
		}
		checkVerticalIndex(t, label+" delta", dv)
		// Patching must leave the previous view's index untouched.
		checkVerticalIndex(t, label+" prev after delta", v)
	}
}

// TestL2LookupsMatchLevel2 checks the bitset lookups of level-k mining
// against the mined level 2: l2HasPair for every (a, rel, b) and
// lemma5Allows for every pair over L1, plus false for an event outside L1.
func TestL2LookupsMatchLevel2(t *testing.T) {
	// Series R is On only in its first samples, so R=On is infrequent.
	sdb := deltaSDB(t, 22, 300)
	rare := make([]int, 300)
	copy(rare, []int{1, 1, 1, 1})
	sdb, err := timeseries.NewSymbolicDB(append(sdb.Series, &timeseries.SymbolicSeries{
		Name: "R", Start: 0, Step: 10, Alphabet: []string{"Off", "On"}, Symbols: rare,
	})...)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := events.ConvertShards(sdb, events.SplitOptions{WindowLength: 200, Overlap: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := PrepareShards(shards)
	if err != nil {
		t.Fatal(err)
	}
	m := newMiner(context.Background(), v, Config{MinSupport: 0.5, MinConfidence: 0.3, MaxK: 3, KeepGraph: true})
	res, err := m.mineAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	l2 := res.Graph.Level(2)
	if l2 == nil || l2.Size() == 0 {
		t.Fatal("fixture mined no level 2")
	}

	pats := map[string]bool{}
	for _, n := range l2.Nodes() {
		for _, pd := range n.Patterns() {
			p := pd.Pattern
			pats[fmt.Sprint(p.Events[0], p.Rels[0], p.Events[1])] = true
		}
	}
	rels := []temporal.Relation{temporal.Follow, temporal.Contain, temporal.Overlap}
	for _, a := range m.oneFreq {
		parent := hpg.NewNode([]events.EventID{a}, nil, 0, 0)
		for _, b := range m.oneFreq {
			for _, rel := range rels {
				want := pats[fmt.Sprint(a, rel, b)]
				if got := m.l2HasPair(a, rel, b); got != want {
					t.Fatalf("l2HasPair(%d, %v, %d) = %v, want %v", a, rel, b, got, want)
				}
			}
			lo, hi := min(a, b), max(a, b)
			want := l2.Get([]events.EventID{lo, hi}) != nil
			if got := m.lemma5Allows(parent, b); got != want {
				t.Fatalf("lemma5Allows({%d}, %d) = %v, want %v", a, b, got, want)
			}
		}
	}

	infrequent := events.EventID(-1)
	for id := 0; id < v.Merged.Vocab.Size(); id++ {
		if m.rank[id] < 0 {
			infrequent = events.EventID(id)
			break
		}
	}
	if infrequent < 0 {
		t.Fatal("fixture has no infrequent event")
	}
	for _, a := range m.oneFreq {
		for _, rel := range rels {
			if m.l2HasPair(a, rel, infrequent) || m.l2HasPair(infrequent, rel, a) {
				t.Fatalf("l2HasPair accepts infrequent event %d", infrequent)
			}
		}
		if m.lemma5Allows(hpg.NewNode([]events.EventID{a}, nil, 0, 0), infrequent) ||
			m.lemma5Allows(hpg.NewNode([]events.EventID{infrequent}, nil, 0, 0), a) {
			t.Fatalf("lemma5Allows accepts infrequent event %d", infrequent)
		}
	}
}
