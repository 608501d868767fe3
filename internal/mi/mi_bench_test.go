package mi

import (
	"fmt"
	"math/rand"
	"testing"

	"ftpm/internal/datagen"
	"ftpm/internal/paperex"
	"ftpm/internal/timeseries"
)

// BenchmarkNMI measures one pairwise NMI evaluation at a realistic series
// length (one month of 5-minute samples).
func BenchmarkNMI(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func(name string) *timeseries.SymbolicSeries {
		s := &timeseries.SymbolicSeries{Name: name, Step: 300, Alphabet: []string{"Off", "On"}}
		cur := 0
		for i := 0; i < 8640; i++ {
			if rng.Float64() < 0.1 {
				cur = rng.Intn(2)
			}
			s.Symbols = append(s.Symbols, cur)
		}
		return s
	}
	x, y := mk("x"), mk("y")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NMI(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// tableSources are the databases the NMI-table benchmarks run on: the
// paper's Table I (6 binary series) and a quarter of the SmartCity
// profile (59 series, ~200 events, alphabets of up to 5 symbols), the
// A-HTPGM input of the cold-approx workload.
func tableSources(b *testing.B) []struct {
	name string
	src  timeseries.SymbolSource
} {
	b.Helper()
	city, err := datagen.SmartCity().Generate(datagen.Options{SequenceFraction: 0.25, SeedOffset: 7})
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		src  timeseries.SymbolSource
	}{{"paper", paperex.SymbolicDB()}, {"smartcity25", city}}
}

// BenchmarkComputePairwise measures the series-level A-HTPGM setup cost:
// the series-pair joints plus the table derived from them.
func BenchmarkComputePairwise(b *testing.B) {
	for _, tc := range tableSources(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ComputePairwise(tc.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComputeEventPairwise measures the event-level extension's
// standalone setup cost: the series-pair joints plus the event table
// derived from them (quadratic in events rather than series).
func BenchmarkComputeEventPairwise(b *testing.B) {
	for _, tc := range tableSources(b) {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ComputeEventPairwise(tc.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMuForDensity measures threshold selection over growing pair
// counts.
func BenchmarkMuForDensity(b *testing.B) {
	for _, nSeries := range []int{8, 32} {
		b.Run(fmt.Sprintf("series=%d", nSeries), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			var ss []*timeseries.SymbolicSeries
			for i := 0; i < nSeries; i++ {
				s := &timeseries.SymbolicSeries{
					Name: fmt.Sprintf("s%d", i), Step: 1, Alphabet: []string{"a", "b"},
				}
				for j := 0; j < 500; j++ {
					s.Symbols = append(s.Symbols, rng.Intn(2))
				}
				ss = append(ss, s)
			}
			db, err := timeseries.NewSymbolicDB(ss...)
			if err != nil {
				b.Fatal(err)
			}
			pw, err := ComputePairwise(db)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pw.MuForDensity(0.6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
