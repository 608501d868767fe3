package mi

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"ftpm/internal/paperex"
	"ftpm/internal/server/store"
	"ftpm/internal/timeseries"
)

func TestComputeEventPairwiseShape(t *testing.T) {
	db := paperex.SymbolicDB()
	p, err := ComputeEventPairwise(db)
	if err != nil {
		t.Fatal(err)
	}
	// 6 binary series -> 12 event indicators.
	if len(p.Keys) != 12 {
		t.Fatalf("keys = %d, want 12", len(p.Keys))
	}
	for i := range p.Keys {
		if p.Values[i][i] != 1 {
			t.Errorf("diagonal %d = %v, want 1", i, p.Values[i][i])
		}
		for j := range p.Keys {
			v := p.Values[i][j]
			if v < 0 || v > 1 {
				t.Fatalf("NMI out of range at (%d,%d): %v", i, j, v)
			}
		}
	}
}

// TestEventIndicatorComplementarity: for a binary series, the On and Off
// indicators are deterministic functions of each other, so their mutual
// NMI is 1 (each removes all uncertainty about the other).
func TestEventIndicatorComplementarity(t *testing.T) {
	db := paperex.SymbolicDB()
	p, err := ComputeEventPairwise(db)
	if err != nil {
		t.Fatal(err)
	}
	idx := func(series, symbol string) int {
		for i, k := range p.Keys {
			if k.Series == series && k.Symbol == symbol {
				return i
			}
		}
		t.Fatalf("key %s=%s missing", series, symbol)
		return -1
	}
	kOn, kOff := idx("K", "On"), idx("K", "Off")
	if v := p.Values[kOn][kOff]; v < 0.999 {
		t.Errorf("NMI(K=On; K=Off) = %v, want 1 (complementary indicators)", v)
	}
	// Cross-series: K=On should correlate with T=On far more than with
	// B=On (K and T co-activate in Table I; B is independent).
	tOn, bOn := idx("T", "On"), idx("B", "On")
	if p.MinNMI(kOn, tOn) < 3*p.MinNMI(kOn, bOn) {
		t.Errorf("event-level NMI does not separate: K/T=%v K/B=%v",
			p.MinNMI(kOn, tOn), p.MinNMI(kOn, bOn))
	}
}

func TestEventGraphFiltering(t *testing.T) {
	db := paperex.SymbolicDB()
	p, err := ComputeEventPairwise(db)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := p.MuForDensity(0.3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := p.Graph(mu)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() == 0 {
		t.Fatal("graph must have edges at 30% density")
	}
	if !g.EventPairAllowed("K", "On", "K", "On") {
		t.Error("self-pairs must always be allowed")
	}
	if g.EventPairAllowed("K", "On", "Z", "On") || g.EventAllowed("Z", "On") {
		t.Error("unknown events must be rejected")
	}
	if !g.EventAllowed("K", "On") {
		t.Error("K=On must stay correlated at 30% density")
	}
	// Symmetry.
	if g.EventPairAllowed("K", "On", "T", "On") != g.EventPairAllowed("T", "On", "K", "On") {
		t.Error("EventPairAllowed must be symmetric")
	}
}

func TestEventPairwiseDensityBounds(t *testing.T) {
	db := paperex.SymbolicDB()
	p, _ := ComputeEventPairwise(db)
	if _, err := p.MuForDensity(-1); err == nil {
		t.Error("negative density must error")
	}
	if _, err := p.Graph(0); err == nil {
		t.Error("µ=0 must error")
	}
	mu1, err := p.MuForDensity(1)
	if err != nil || mu1 <= 0 {
		t.Errorf("full density µ = %v, %v", mu1, err)
	}
	// Constant indicator: a symbol that never occurs.
	s := &timeseries.SymbolicSeries{
		Name: "X", Step: 1,
		Alphabet: []string{"a", "b", "never"},
		Symbols:  []int{0, 1, 0, 1},
	}
	s2 := &timeseries.SymbolicSeries{
		Name: "Y", Step: 1,
		Alphabet: []string{"a", "b"},
		Symbols:  []int{0, 0, 1, 1},
	}
	db2, err := timeseries.NewSymbolicDB(s, s2)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ComputeEventPairwise(db2)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range p2.Keys {
		if k.Symbol == "never" {
			for j := range p2.Keys {
				if i != j && (p2.Values[i][j] != 0 || p2.Values[j][i] != 0) {
					t.Errorf("constant indicator must have zero NMI, got %v/%v",
						p2.Values[i][j], p2.Values[j][i])
				}
			}
		}
	}
}

// The reference NMI path the joints-derived tables are checked against:
// every table cell computed by its own run sweep, the series table over
// series pairs and the event table over per-event indicator run copies.
// It is the pre-joints implementation kept verbatim, so equality is
// bit-for-bit (math.Float64bits), not within a tolerance.

// indicatorRuns maps the base runs of a series onto the binary indicator
// of symbol sym: runs keep their extents, the symbol becomes 1 where it
// matched and 0 elsewhere.
func indicatorRuns(base []timeseries.Run, sym int) []timeseries.Run {
	out := make([]timeseries.Run, len(base))
	for i, r := range base {
		v := 0
		if r.Symbol == sym {
			v = 1
		}
		out[i] = timeseries.Run{Symbol: v, First: r.First, Last: r.Last}
	}
	return out
}

// oracleJoint tallies the nx×ny joint of two run partitions.
func oracleJoint(xr, yr []timeseries.Run, nx, ny int) [][]int {
	joint := make([][]int, nx)
	for i := range joint {
		joint[i] = make([]int, ny)
	}
	i, j := 0, 0
	for i < len(xr) && j < len(yr) {
		a, b := xr[i], yr[j]
		lo, hi := a.First, a.Last
		if b.First > lo {
			lo = b.First
		}
		if b.Last < hi {
			hi = b.Last
		}
		if hi >= lo {
			joint[a.Symbol][b.Symbol] += hi - lo + 1
		}
		if a.Last <= b.Last {
			i++
		}
		if b.Last <= a.Last {
			j++
		}
	}
	return joint
}

func oracleNMI(joint [][]int, xCounts, yCounts []int, samples int, hx float64) float64 {
	n := float64(samples)
	mi := 0.0
	for xi := range joint {
		for yi, c := range joint[xi] {
			if c == 0 {
				continue
			}
			pxy := float64(c) / n
			px := float64(xCounts[xi]) / n
			py := float64(yCounts[yi]) / n
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	if mi < 0 {
		mi = 0
	}
	nmi := mi / hx
	if nmi > 1 {
		nmi = 1
	}
	return nmi
}

// oracleTable fills an m×m NMI table over m run partitions, with the
// production transpose rule and constant short-circuits.
func oracleTable(runs [][]timeseries.Run, counts [][]int, samples int) [][]float64 {
	m := len(runs)
	h := make([]float64, m)
	vals := make([][]float64, m)
	for i := range runs {
		h[i] = entropyFromCounts(counts[i], samples)
		vals[i] = make([]float64, m)
	}
	for i := 0; i < m; i++ {
		if h[i] == 0 {
			continue
		}
		for j := 0; j < m; j++ {
			switch {
			case i == j:
				vals[i][j] = 1
			case j < i && h[j] > 0:
				vals[i][j] = vals[j][i] * h[j] / h[i]
			default:
				joint := oracleJoint(runs[i], runs[j], len(counts[i]), len(counts[j]))
				vals[i][j] = oracleNMI(joint, counts[i], counts[j], samples, h[i])
			}
		}
	}
	return vals
}

func oraclePairwise(src timeseries.SymbolSource) *Pairwise {
	p := &Pairwise{}
	var runs [][]timeseries.Run
	var counts [][]int
	for si := 0; si < src.NumSeries(); si++ {
		p.Names = append(p.Names, src.SeriesName(si))
		r := src.AppendRuns(si, nil)
		runs = append(runs, r)
		counts = append(counts, countsFromRuns(r, len(src.SeriesAlphabet(si))))
	}
	p.Values = oracleTable(runs, counts, src.Len())
	return p
}

func oracleEventPairwise(src timeseries.SymbolSource) *EventPairwise {
	p := &EventPairwise{}
	var inds [][]timeseries.Run
	var counts [][]int
	for si := 0; si < src.NumSeries(); si++ {
		alpha := src.SeriesAlphabet(si)
		base := src.AppendRuns(si, nil)
		for sym := range alpha {
			p.Keys = append(p.Keys, EventKey{Series: src.SeriesName(si), Symbol: alpha[sym]})
			ind := indicatorRuns(base, sym)
			inds = append(inds, ind)
			counts = append(counts, countsFromRuns(ind, 2))
		}
	}
	p.Values = oracleTable(inds, counts, src.Len())
	return p
}

// sameBits reports the first cell where two tables differ in bits.
func sameBits(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d: %d cells, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("cell (%d,%d) = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

func checkEventTable(src timeseries.SymbolSource, want *EventPairwise) error {
	got, err := ComputeEventPairwise(src)
	if err != nil {
		return err
	}
	if len(got.Keys) != len(want.Keys) {
		return fmt.Errorf("%d keys, want %d", len(got.Keys), len(want.Keys))
	}
	for i := range want.Keys {
		if got.Keys[i] != want.Keys[i] {
			return fmt.Errorf("key %d = %v, want %v", i, got.Keys[i], want.Keys[i])
		}
	}
	return sameBits(got.Values, want.Values)
}

func checkSeriesTable(src timeseries.SymbolSource, want *Pairwise) error {
	got, err := ComputePairwise(src)
	if err != nil {
		return err
	}
	if fmt.Sprint(got.Names) != fmt.Sprint(want.Names) {
		return fmt.Errorf("names %v, want %v", got.Names, want.Names)
	}
	return sameBits(got.Values, want.Values)
}

// splitRuns reports every run of its source split in two where possible:
// a valid but non-maximal run partition, the shape a chained view's seam
// produces.
type splitRuns struct{ timeseries.SymbolSource }

func (s splitRuns) AppendRuns(i int, dst []timeseries.Run) []timeseries.Run {
	for _, r := range s.SymbolSource.AppendRuns(i, nil) {
		if r.Last > r.First {
			mid := (r.First + r.Last) / 2
			dst = append(dst, timeseries.Run{Symbol: r.Symbol, First: r.First, Last: mid},
				timeseries.Run{Symbol: r.Symbol, First: mid + 1, Last: r.Last})
		} else {
			dst = append(dst, r)
		}
	}
	return dst
}

// randomSource builds an aligned database whose series have alphabets
// of 1–6 symbols and one of four shapes: constant over a one-symbol
// alphabet, a single run over a larger alphabet (its other symbols never
// occur), or random runs with short or long mean length.
func randomSource(t testing.TB, rng *rand.Rand, nSeries, samples int) *timeseries.SymbolicDB {
	t.Helper()
	series := make([]*timeseries.SymbolicSeries, nSeries)
	for si := range series {
		alpha := 1 + rng.Intn(6)
		shape := rng.Intn(4)
		if shape == 0 {
			alpha = 1
		}
		s := &timeseries.SymbolicSeries{Name: fmt.Sprintf("s%d", si), Step: 1, Symbols: make([]int, samples)}
		for a := 0; a < alpha; a++ {
			s.Alphabet = append(s.Alphabet, fmt.Sprintf("v%d", a))
		}
		switch shape {
		case 0, 1:
			sym := rng.Intn(alpha)
			for k := range s.Symbols {
				s.Symbols[k] = sym
			}
		default:
			meanRun := 1 + (shape-2)*15
			for k := 0; k < samples; {
				sym := rng.Intn(alpha)
				for n := 1 + rng.Intn(meanRun*2); n > 0 && k < samples; n-- {
					s.Symbols[k] = sym
					k++
				}
			}
		}
		series[si] = s
	}
	db, err := timeseries.NewSymbolicDB(series...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestEventPairwiseMatchesIndicatorSweep pins the joints-derived event
// table to the per-indicator sweep, bit for bit and in key order, on
// random multi-symbol databases, on non-maximal run partitions of them,
// and on segment-backed copies.
func TestEventPairwiseMatchesIndicatorSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	dir := t.TempDir()
	for trial := 0; trial < 60; trial++ {
		db := randomSource(t, rng, 1+rng.Intn(6), 1+rng.Intn(300))
		want := oracleEventPairwise(db)
		if err := checkEventTable(db, want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := checkEventTable(splitRuns{db}, want); err != nil {
			t.Fatalf("trial %d, split runs: %v", trial, err)
		}
		if trial%10 == 0 {
			path := filepath.Join(dir, fmt.Sprintf("t%d.seg", trial))
			if _, err := store.WriteSegment(path, db, "fp"); err != nil {
				t.Fatal(err)
			}
			seg, err := store.OpenSegment(path)
			if err != nil {
				t.Fatal(err)
			}
			err = checkEventTable(seg, want)
			seg.Close()
			if err != nil {
				t.Fatalf("trial %d, segment: %v", trial, err)
			}
		}
	}
	if err := checkEventTable(paperex.SymbolicDB(), oracleEventPairwise(paperex.SymbolicDB())); err != nil {
		t.Fatalf("paper example: %v", err)
	}
}

// TestPairwiseMatchesSeriesSweep pins the joints-derived series table —
// including the direct branch that reads a stored block transposed — to
// one sweep per ordered series pair, bit for bit, and checks that one
// Joints serves both tables.
func TestPairwiseMatchesSeriesSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		db := randomSource(t, rng, 1+rng.Intn(6), 1+rng.Intn(300))
		want := oraclePairwise(db)
		if err := checkSeriesTable(db, want); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := checkSeriesTable(splitRuns{db}, want); err != nil {
			t.Fatalf("trial %d, split runs: %v", trial, err)
		}
		jt := ComputeJoints(db)
		if err := sameBits(jt.Pairwise().Values, want.Values); err != nil {
			t.Fatalf("trial %d, shared joints (series): %v", trial, err)
		}
		if err := sameBits(jt.EventPairwise().Values, oracleEventPairwise(db).Values); err != nil {
			t.Fatalf("trial %d, shared joints (events): %v", trial, err)
		}
	}
	if err := checkSeriesTable(paperex.SymbolicDB(), oraclePairwise(paperex.SymbolicDB())); err != nil {
		t.Fatalf("paper example: %v", err)
	}
}

// fuzzSource decodes fuzz bytes into a small aligned database: byte 0
// picks 1–4 series, byte 1 picks 1–64 samples, then per series one byte
// picks an alphabet of 1–6 symbols and (symbol, run length) byte pairs
// fill its samples. Missing bytes read as zero.
func fuzzSource(data []byte) (*timeseries.SymbolicDB, error) {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	nSeries := 1 + next()%4
	samples := 1 + next()%64
	series := make([]*timeseries.SymbolicSeries, nSeries)
	for si := range series {
		alpha := 1 + next()%6
		s := &timeseries.SymbolicSeries{Name: fmt.Sprintf("s%d", si), Step: 1, Symbols: make([]int, samples)}
		for a := 0; a < alpha; a++ {
			s.Alphabet = append(s.Alphabet, fmt.Sprintf("v%d", a))
		}
		for k := 0; k < samples; {
			sym := next() % alpha
			for n := 1 + next()%16; n > 0 && k < samples; n-- {
				s.Symbols[k] = sym
				k++
			}
		}
		series[si] = s
	}
	return timeseries.NewSymbolicDB(series...)
}

// FuzzEventNMI checks the joints-derived event table against the
// per-indicator sweep, bit for bit, on fuzz-decoded databases. The seed
// corpus lives in testdata/fuzz/FuzzEventNMI.
func FuzzEventNMI(f *testing.F) {
	f.Add([]byte{1, 15, 1, 0, 3, 1, 4, 0, 9, 5, 0, 2, 2, 1, 7})
	f.Add([]byte{3, 40, 0, 0, 63, 5, 2, 1, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := fuzzSource(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkEventTable(db, oracleEventPairwise(db)); err != nil {
			t.Fatal(err)
		}
	})
}
