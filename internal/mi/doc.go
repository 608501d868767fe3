// Package mi implements the information-theoretic machinery of A-HTPGM
// (paper §V): entropy, conditional entropy, mutual information (MI) and
// normalized mutual information (NMI) of symbolic time series, the
// correlation graph with density-based selection of the MI threshold µ,
// and the confidence lower bound of Theorem 1.
//
// Two pruning granularities are provided. Series-level NMI (Def 5.3,
// Alg 2) compares whole symbolic series and yields the correlation graph
// of Def 5.5 consumed by the miner's SeriesFilter. Event-level NMI — the
// paper's stated future work (§VII) — compares event indicator series
// and yields an EventGraph for per-event-pair pruning inside correlated
// series.
//
// Both tables derive from one counting artifact, Joints: the marginal
// symbol counts of every series and the joint counts of every series
// pair, tallied with one run sweep per pair (O(n²·runs) for n series).
// The series table reads whole pair blocks; the event table needs one
// joint cell per event pair plus the marginals, so it adds only O(m²)
// for m events. Every cell is the same integer a per-sample tally would
// give and is summed in the same order, so the tables are bit-identical
// to counting each pair on its own, over any SymbolSource.
//
// Both granularities share one threshold-resolution path: ResolveMu
// derives µ from either an explicit value or an expected graph density
// evaluated against a pairwise table. The tables themselves are pure
// data, independent of µ, which is what lets the prepared-dataset façade
// compute one table and re-threshold it per query.
//
// All logarithms are natural, matching the paper's worked example
// (I(K;T) = 0.29 for Table I).
package mi
