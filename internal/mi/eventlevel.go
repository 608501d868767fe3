// Event-level mutual information — the paper's stated future work
// (§VII: "we plan to extend HTPGM to perform pruning at the event level").
//
// Series-level NMI (Alg 2) can only prune whole time series. Event-level
// NMI computes the correlation between *event indicator series* — for the
// event (X, s), the binary series 1{X_t = s} — so that individual event
// pairs inside correlated series can be pruned too (e.g. Kitchen=Off may
// be uninformative about Toaster=On even when the Kitchen and Toaster
// series correlate through their On states).
package mi

import (
	"fmt"
	"math"
	"sort"

	"ftpm/internal/timeseries"
)

// EventKey identifies an event: a (series, symbol) pair.
type EventKey struct {
	Series string
	Symbol string
}

// EventPairwise holds NMI values between all event indicator series of a
// symbolic database.
type EventPairwise struct {
	Keys []EventKey
	// Values[i][j] = NMI of indicator i given indicator j.
	Values [][]float64
}

// ComputeEventPairwise evaluates NMI between every pair of event
// indicator series: ComputeJoints followed by Joints.EventPairwise. Any
// SymbolSource over the same data yields a bit-identical table.
func ComputeEventPairwise(src timeseries.SymbolSource) (*EventPairwise, error) {
	return ComputeJoints(src).EventPairwise(), nil
}

// EventPairwise derives the event-level NMI table from the series-pair
// joints, with no pass over the data: O(m²) for m events on top of the
// joints' O(n² · runs). The indicator of event (X, a) counts cnt_a ones
// among N samples, and the 2×2 joint of indicators (X=a, Y=b) follows
// from c₁₁ = joint_XY[a][b] alone:
//
//	c₁₀ = cnt_a − c₁₁,  c₀₁ = cnt_b − c₁₁,  c₀₀ = N − cnt_a − cnt_b + c₁₁
//
// Two symbols of one series never co-occur, so their c₁₁ is 0. These are
// the integers a run sweep over the indicator series would count, and
// they are summed in the same order, so the table is bit-identical to
// sweeping every indicator pair. This is the price of finer pruning and
// is included in the A-HTPGM timing when event-level pruning is enabled.
func (jt *Joints) EventPairwise() *EventPairwise {
	n := jt.samples
	var keys []EventKey
	var series, syms []int // owning series and symbol index per event
	for si, alpha := range jt.alphabets {
		for sym := range alpha {
			keys = append(keys, EventKey{Series: jt.names[si], Symbol: alpha[sym]})
			series = append(series, si)
			syms = append(syms, sym)
		}
	}
	m := len(keys)
	// ind[2k:2k+2] are the marginal counts of indicator k: zeros, ones.
	ind := make([]int, 2*m)
	entropies := make([]float64, m)
	for k := range keys {
		c := jt.counts[series[k]][syms[k]]
		ind[2*k], ind[2*k+1] = n-c, c
		entropies[k] = entropyFromCounts(ind[2*k:2*k+2], n)
	}
	p := &EventPairwise{Keys: keys, Values: square(m)}
	for i := 0; i < m; i++ {
		if entropies[i] == 0 {
			continue // constant indicator: NMI 0 against everything
		}
		for j := 0; j < m; j++ {
			if i == j {
				p.Values[i][j] = 1
				continue
			}
			if j < i && entropies[j] > 0 {
				p.Values[i][j] = p.Values[j][i] * entropies[j] / entropies[i]
				continue
			}
			c11 := 0
			if series[i] != series[j] {
				cells, rs, cs := jt.block(series[i], series[j])
				c11 = cells[syms[i]*rs+syms[j]*cs]
			}
			ca, cb := ind[2*i+1], ind[2*j+1]
			joint := [4]int{n - ca - cb + c11, cb - c11, ca - c11, c11}
			p.Values[i][j] = nmiFromCounts(joint[:], 2, 1, ind[2*i:2*i+2], ind[2*j:2*j+2], n, entropies[i])
		}
	}
	return p
}

// MinNMI returns min(NMI(i;j), NMI(j;i)).
func (p *EventPairwise) MinNMI(i, j int) float64 {
	a, b := p.Values[i][j], p.Values[j][i]
	if a < b {
		return a
	}
	return b
}

// MuForDensity chooses the event-level µ realizing the expected density
// of the event correlation graph (the analog of Def 5.6).
func (p *EventPairwise) MuForDensity(density float64) (float64, error) {
	if density < 0 || density > 1 {
		return 0, fmt.Errorf("mi: density %v out of [0,1]", density)
	}
	var mins []float64
	for i := range p.Keys {
		for j := i + 1; j < len(p.Keys); j++ {
			mins = append(mins, p.MinNMI(i, j))
		}
	}
	if len(mins) == 0 {
		return 1, nil
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(mins)))
	k := int(math.Round(density * float64(len(mins))))
	if k <= 0 {
		return math.Nextafter(mins[0], math.Inf(1)), nil
	}
	if k > len(mins) {
		k = len(mins)
	}
	mu := mins[k-1]
	if mu <= 0 {
		mu = math.SmallestNonzeroFloat64
	}
	return mu, nil
}

// EventGraph is the undirected event-level correlation graph; it
// implements the miner's EventFilter.
type EventGraph struct {
	Mu    float64
	index map[EventKey]int
	adj   [][]bool
}

// Graph thresholds the event pairwise matrix at µ.
func (p *EventPairwise) Graph(mu float64) (*EventGraph, error) {
	if mu <= 0 || mu > 1 {
		return nil, fmt.Errorf("mi: µ must be in (0,1], got %v", mu)
	}
	m := len(p.Keys)
	g := &EventGraph{Mu: mu, index: make(map[EventKey]int, m), adj: make([][]bool, m)}
	for i, k := range p.Keys {
		g.index[k] = i
		g.adj[i] = make([]bool, m)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if p.Values[i][j] >= mu && p.Values[j][i] >= mu {
				g.adj[i][j] = true
				g.adj[j][i] = true
			}
		}
	}
	return g, nil
}

// EventAllowed reports whether the event has at least one incident edge.
func (g *EventGraph) EventAllowed(series, symbol string) bool {
	i, ok := g.index[EventKey{Series: series, Symbol: symbol}]
	if !ok {
		return false
	}
	for _, e := range g.adj[i] {
		if e {
			return true
		}
	}
	return false
}

// EventPairAllowed reports whether the two events share an edge. An event
// is always allowed with itself (self-relations).
func (g *EventGraph) EventPairAllowed(aSeries, aSymbol, bSeries, bSymbol string) bool {
	i, ok := g.index[EventKey{Series: aSeries, Symbol: aSymbol}]
	if !ok {
		return false
	}
	j, ok := g.index[EventKey{Series: bSeries, Symbol: bSymbol}]
	if !ok {
		return false
	}
	if i == j {
		return true
	}
	return g.adj[i][j]
}

// NumEdges returns the number of undirected edges.
func (g *EventGraph) NumEdges() int {
	n := 0
	for i := range g.adj {
		for j := i + 1; j < len(g.adj); j++ {
			if g.adj[i][j] {
				n++
			}
		}
	}
	return n
}
