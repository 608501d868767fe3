package events

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ftpm/internal/temporal"
)

// bruteInstancesOf scans s.Instances for the instances of e.
func bruteInstancesOf(s *Sequence, e EventID) []int32 {
	var out []int32
	for i, in := range s.Instances {
		if in.Event == e {
			out = append(out, int32(i))
		}
	}
	return out
}

// randomInstances draws n instances over the given event ids, with starts
// from a narrow range so equal-start ties are common.
func randomInstances(rng *rand.Rand, n int, ids []EventID) []Instance {
	out := make([]Instance, n)
	for i := range out {
		start := temporal.Time(rng.Intn(6))
		out[i] = Instance{
			Event:    ids[rng.Intn(len(ids))],
			Interval: temporal.NewInterval(start, start+1+temporal.Time(rng.Intn(4))),
		}
	}
	return out
}

// checkIndex compares the sequence's CSR index against a brute-force scan
// of its instances, for every event in probes.
func checkIndex(t *testing.T, s *Sequence, probes []EventID) {
	t.Helper()
	var want []EventID
	for _, in := range s.Instances {
		want = append(want, in.Event)
	}
	slices.Sort(want)
	want = slices.Compact(want)
	if got := s.Events(); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("Events() = %v, want %v", got, want)
	}
	for _, e := range probes {
		bf := bruteInstancesOf(s, e)
		got := s.InstancesOf(e)
		if len(got) != len(bf) || (len(bf) > 0 && !reflect.DeepEqual(got, bf)) {
			t.Fatalf("InstancesOf(%d) = %v, want %v", e, got, bf)
		}
		if s.Has(e) != (len(bf) > 0) {
			t.Fatalf("Has(%d) = %v, want %v", e, s.Has(e), len(bf) > 0)
		}
	}
	// Appending to one event's list must leave every other list intact.
	for _, e := range want {
		if grown := append(s.InstancesOf(e), -1); grown[len(grown)-1] != -1 {
			t.Fatal("append lost its element")
		}
	}
	for _, e := range want {
		if got, bf := s.InstancesOf(e), bruteInstancesOf(s, e); !reflect.DeepEqual(got, bf) {
			t.Fatalf("after appends, InstancesOf(%d) = %v, want %v", e, got, bf)
		}
	}
}

// TestSequenceIndexProperty checks the CSR per-event index of random
// sequences — empty and single-instance ones, equal-start ties, dense and
// sparse (high) event ids — against brute-force scans of Instances,
// probing ids below, between and above the sequence's own.
func TestSequenceIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	idSets := [][]EventID{
		{0},
		{0, 1, 2, 3},
		{3, 17, 1 << 12, 1<<20 + 5, math.MaxInt32 - 1},
	}
	for iter := 0; iter < 300; iter++ {
		ids := idSets[iter%len(idSets)]
		n := rng.Intn(30)
		switch iter % 10 {
		case 0:
			n = 0
		case 1:
			n = 1
		}
		s := NewSequence(iter, temporal.NewInterval(0, 10), randomInstances(rng, n, ids))
		probes := append([]EventID{0, 1, 2, 4, 16, 18, 1<<20 + 4, math.MaxInt32}, ids...)
		checkIndex(t, s, probes)
	}
}

// TestDBStatsMatchesBruteForce checks DB.Stats over random databases with
// sparse event ids against a brute-force count of their instances.
func TestDBStatsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 50; iter++ {
		vocab := NewVocab()
		nEvents := 1 + rng.Intn(300)
		for i := 0; i < nEvents; i++ {
			vocab.Define(string(rune('A'+i%5)), string(rune('a'+i/5%26))+string(rune('a'+i/130)))
		}
		ids := []EventID{0, EventID(nEvents - 1), EventID(rng.Intn(nEvents))}
		db := &DB{Vocab: vocab}
		for i := rng.Intn(6); i > 0; i-- {
			db.Sequences = append(db.Sequences, NewSequence(len(db.Sequences), temporal.NewInterval(0, 10), randomInstances(rng, rng.Intn(25), ids)))
		}

		want := Stats{NumSequences: len(db.Sequences), NumDistinctEvents: nEvents, NumVariables: min(nEvents, 5)}
		perEvent := map[EventID]int{}
		for _, s := range db.Sequences {
			for _, in := range s.Instances {
				want.TotalInstances++
				perEvent[in.Event]++
				want.MaxInstancesPerEvent = max(want.MaxInstancesPerEvent, perEvent[in.Event])
			}
		}
		if want.NumSequences > 0 {
			want.AvgInstancesPerSeq = float64(want.TotalInstances) / float64(want.NumSequences)
		}
		if got := db.Stats(); got != want {
			t.Fatalf("iter %d: Stats() = %+v, want %+v", iter, got, want)
		}
	}
}
