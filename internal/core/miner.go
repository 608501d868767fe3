package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/hpg"
	"ftpm/internal/pattern"
	"ftpm/internal/temporal"
)

// Mine runs HTPGM over the temporal sequence database. With a nil
// Config.Filter this is the exact E-HTPGM (Alg 1); with a correlation
// filter it is A-HTPGM (Alg 2). It mines db as a one-shard view, through
// the same code as MineShardedView.
//
// Cancelling ctx aborts the run: workers stop between verification units
// (candidate nodes and, within a node, sequences), and Mine returns
// ctx.Err(). A nil ctx is treated as context.Background().
func Mine(ctx context.Context, db *events.DB, cfg Config) (*Result, error) {
	if db == nil {
		return nil, fmt.Errorf("core: empty sequence database")
	}
	res, _, err := MineSharded(ctx, []*events.DB{db}, cfg)
	return res, err
}

// mineAll runs the levelwise mining loop on a fully-constructed miner.
func (m *miner) mineAll(ctx context.Context) (*Result, error) {
	start := time.Now()
	m.scrPool.New = func() any { return &scratch{} }
	m.curWorkers = m.cfg.Workers
	m.mineSingles()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if m.cfg.MaxK != 1 && len(m.oneFreq) > 0 {
		m.mineLevel2()
		if m.cfg.MaxK == 0 || m.cfg.MaxK >= 3 {
			// The L2 bitsets only serve level-k (k >= 3) mining; a
			// MaxK=2 run never reads them.
			m.buildL2Index()
		}
		for k := 3; ; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if m.cfg.MaxK > 0 && k > m.cfg.MaxK {
				break
			}
			prev := m.graph.Level(k - 1)
			if prev == nil || prev.Size() == 0 {
				break
			}
			if m.mineLevelK(k) == 0 {
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.stats.Duration = time.Since(start)
	return m.buildResult(), nil
}

// miner carries the run state.
type miner struct {
	db      *events.DB   // the view's merged database
	view    *ShardedView // the mined view; its vertical index feeds L1
	cfg     Config
	rel     temporal.Config
	n       int // |DSEQ|
	minSupp int

	// l1 is the view's vertical index and eventBm the support bitmap of
	// every event, both indexed by EventID (infrequent events too: they
	// are needed for the confidence denominators of Def 3.16). An event's
	// support is the length of its list.
	l1      []vlist
	eventBm []*bitmap.Bitmap
	oneFreq []events.EventID // frequent singles after the series filter

	graph *hpg.Graph
	stats Stats

	// rank, l2nodes and l2pats index the finished level 2 for the Lemma 5
	// candidate filter and the iterative triple verification: rank maps an
	// event to its position in oneFreq (-1 outside L1), and the two
	// bitsets are addressed by the ranks of an event pair (see pairBit).
	// Built once by buildL2Index, read-only during level-k mining.
	rank    []int32
	l2nodes *bitmap.Bitmap
	l2pats  *bitmap.Bitmap

	// scrPool recycles per-worker scratch state across the run's parallel
	// drains. Scoped to the miner (not package-global) so pooled bitmaps
	// always have this run's sequence-count width.
	scrPool sync.Pool

	// done is the cancellation channel of the run's context; cancelled()
	// polls it between verification units.
	done <-chan struct{}

	// curWorkers is the effective worker count of the level currently
	// being mined. It starts at cfg.Workers and is renegotiated through
	// cfg.WorkersFunc at each level boundary (renegotiateWorkers); it must
	// stay fixed within a level so every fan-out of that level sees the
	// same parallelism.
	curWorkers int
}

// cancelled reports whether the run's context has been cancelled. A nil
// done channel (background context) never signals, so the check is one
// non-blocking select — cheap enough for per-sequence polling inside node
// verification.
func (m *miner) cancelled() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// seriesOf returns the originating series of an event.
func (m *miner) seriesOf(e events.EventID) string { return m.db.Vocab.Def(e).Series }

// pairAllowed applies the A-HTPGM correlation filters at L2 (Alg 2 lines
// 9-11). For the series-level filter, same-series pairs always pass; the
// event-level filter (future-work extension) decides per event pair, with
// self-pairs always allowed.
func (m *miner) pairAllowed(a, b events.EventID) bool {
	if m.cfg.Filter != nil {
		sa, sb := m.seriesOf(a), m.seriesOf(b)
		if sa != sb && !m.cfg.Filter.PairAllowed(sa, sb) {
			return false
		}
	}
	if m.cfg.EventFilter != nil && a != b {
		da, db := m.db.Vocab.Def(a), m.db.Vocab.Def(b)
		if !m.cfg.EventFilter.EventPairAllowed(da.Series, da.Symbol, db.Series, db.Symbol) {
			return false
		}
	}
	return true
}

// eventAllowed applies the L1 filters to a single event.
func (m *miner) eventAllowed(e events.EventID) bool {
	d := m.db.Vocab.Def(e)
	if m.cfg.Filter != nil && !m.cfg.Filter.SeriesAllowed(d.Series) {
		return false
	}
	if m.cfg.EventFilter != nil && !m.cfg.EventFilter.EventAllowed(d.Series, d.Symbol) {
		return false
	}
	return true
}

// maxEventSupport returns max support over the pattern's events — the
// denominator of Def 3.16.
func (m *miner) maxEventSupport(evs []events.EventID) int {
	mx := 0
	for _, e := range evs {
		if s := len(m.l1[e].seqs); s > mx {
			mx = s
		}
	}
	return mx
}

// spanOK checks the maximal-duration constraint of §III-C. The paper
// phrases it as "end time of the last instance minus start time of the
// first"; we apply the equivalent monotone form — every instance must end
// within first.Start + t_max — so that the constraint is closed under
// sub-patterns and Apriori reasoning stays exact (see DESIGN.md).
func (m *miner) spanOK(first, other events.Instance) bool {
	if m.cfg.TMax <= 0 {
		return true
	}
	end := other.End
	if first.End > end {
		end = first.End
	}
	return end-first.Start <= m.cfg.TMax
}

// mineSingles is step 1 of Alg 1 (lines 1-4): frequent single events.
func (m *miner) mineSingles() {
	t0 := time.Now()
	m.renegotiateWorkers(1)
	m.scanSingles()
	m.filterSingles(t0)
}

// filterSingles applies the L1 filters and the support threshold to the
// scanned event supports and assembles level 1 of the pattern graph.
func (m *miner) filterSingles(t0 time.Time) {
	vocabSize := m.db.Vocab.Size()
	level := hpg.NewLevel(1)
	allowedSeries := make(map[string]bool)
	for id := 0; id < vocabSize; id++ {
		e := events.EventID(id)
		bm := m.eventBm[e]
		supp := len(m.l1[e].seqs)

		if !m.eventAllowed(e) {
			continue
		}
		allowedSeries[m.seriesOf(e)] = true
		m.stats.SinglesConsidered++
		if supp < m.minSupp {
			continue
		}
		m.oneFreq = append(m.oneFreq, e)
		level.Add(hpg.NewNode([]events.EventID{e}, bm, supp, 1))
	}
	if m.cfg.Filter != nil {
		total := make(map[string]bool)
		for id := 0; id < vocabSize; id++ {
			total[m.seriesOf(events.EventID(id))] = true
		}
		m.stats.SeriesFiltered = len(total) - len(allowedSeries)
	}
	sort.Slice(m.oneFreq, func(i, j int) bool { return m.oneFreq[i] < m.oneFreq[j] })
	m.stats.SinglesFrequent = len(m.oneFreq)
	m.graph.Levels = append(m.graph.Levels, level)
	m.finishLevel(LevelStats{K: 1, Candidates: m.stats.SinglesConsidered,
		NodesVerified: m.stats.SinglesConsidered, GreenNodes: len(m.oneFreq),
		Workers: m.workers(), Duration: time.Since(t0)})
}

// finishLevel records a completed level's stats and notifies the progress
// callback (on the mining goroutine). A cancelled run suppresses the
// callback: its counters are partial, and Progress promises final
// per-level numbers.
func (m *miner) finishLevel(ls LevelStats) {
	m.stats.Levels = append(m.stats.Levels, ls)
	if m.cfg.Progress != nil && !m.cancelled() {
		m.cfg.Progress(ls)
	}
}

// keepOccsAt reports whether occurrences of level k must be stored: they
// are needed when level k+1 will extend them, or when the caller wants
// the full graph.
func (m *miner) keepOccsAt(k int) bool {
	return m.cfg.KeepGraph || m.cfg.MaxK == 0 || k < m.cfg.MaxK
}

// mineLevel2 is step 2 of Alg 1 (lines 5-14): frequent 2-event patterns.
// Candidate pairs are verified independently over the merged view —
// serially or in parallel over Config.Workers.
func (m *miner) mineLevel2() {
	t0 := time.Now()
	m.renegotiateWorkers(2)
	ls := LevelStats{K: 2, Workers: m.workers()}
	level := hpg.NewLevel(2)

	var tasks []pairTask
	for i, a := range m.oneFreq {
		for _, b := range m.oneFreq[i:] {
			if !m.pairAllowed(a, b) {
				m.stats.PairsFiltered++
				continue
			}
			tasks = append(tasks, pairTask{a, b})
		}
	}
	outcomes := runParallel(m.done, m.workers(), &m.scrPool, tasks, m.verifyPairTask)
	mergeOutcomes(level, &ls, outcomes)

	m.graph.Levels = append(m.graph.Levels, level)
	ls.Duration = time.Since(t0)
	m.finishLevel(ls)
}

// verifyPair mines the frequent 2-event patterns of one node (step 2.2):
// it retrieves the instance pairs in every sequence where both events
// occur, classifies their relation, and keeps the frequent and confident
// ones. All L2 state lives in the worker's scratch pending table.
func (m *miner) verifyPair(node *hpg.Node, scr *scratch, ls *LevelStats) {
	scr.pair.reset()
	a, b := node.Events[0], node.Events[1]
	keepOccs := m.keepOccsAt(2)

	// Monotone cursors into both events' vertical lists: the node bitmap
	// ascends, and each of its sequences is on both lists.
	la, lb := &m.l1[a], &m.l1[b]
	ca, cb := 0, 0
	scr.idxBuf = node.Bitmap.AppendIndices(scr.idxBuf[:0])
	for _, s32 := range scr.idxBuf {
		if m.cancelled() {
			break
		}
		seqIdx := int(s32)
		seq := m.db.Sequences[seqIdx]
		ia := la.seek(&ca, s32)
		if a == b {
			// Self-relation: ordered pairs of distinct instances.
			for x := 0; x < len(ia); x++ {
				for y := x + 1; y < len(ia); y++ {
					m.classifyInto(a, b, seq, seqIdx, ia[x], ia[y], keepOccs, scr)
				}
			}
			continue
		}
		ib := lb.seek(&cb, s32)
		for _, x := range ia {
			for _, y := range ib {
				// Order the two instances chronologically; instance order
				// in the sequence equals index order.
				lo, hi := x, y
				if hi < lo {
					lo, hi = hi, lo
				}
				m.classifyInto(a, b, seq, seqIdx, lo, hi, keepOccs, scr)
			}
		}
	}
	m.flushPair(node, scr, ls)
}

// classifyInto classifies the instance pair (lo before hi) and records the
// resulting 2-event pattern occurrence under its (first event, relation)
// slot of the scratch L2 pending table — direct table addressing, no keys.
func (m *miner) classifyInto(a, b events.EventID, seq *events.Sequence, seqIdx int, lo, hi int32, keepOccs bool, scr *scratch) {
	first, second := seq.Instances[lo], seq.Instances[hi]
	if !m.spanOK(first, second) {
		return
	}
	rel := m.rel.Classify(first.Interval, second.Interval)
	if rel == temporal.None {
		return
	}
	acc := &scr.pair
	slot := pairSlot(rel, a != b && first.Event == b)
	pp := &acc.slots[slot]
	if !acc.used[slot] {
		acc.used[slot] = true
		pp.reset()
		pp.pat = pattern.Pair(first.Event, rel, second.Event)
		pp.bm = scr.getBitmap(m.n)
		if keepOccs {
			pp.occs = scr.getStore(2)
		}
	}
	scr.tupleBuf = append(scr.tupleBuf[:0], lo, hi)
	pp.record(m, seqIdx, scr.tupleBuf)
}

// flushPair flushes the L2 pending table in slot order. At L2 every slot
// already realizes a distinct canonical pattern, so no merging occurs and
// the slot order is irrelevant for the (lazily key-sorted) node.
func (m *miner) flushPair(node *hpg.Node, scr *scratch, ls *LevelStats) {
	buf := scr.flushBuf[:0]
	for i := range scr.pair.slots {
		if scr.pair.used[i] {
			buf = append(buf, &scr.pair.slots[i])
		}
	}
	scr.flushBuf = buf
	m.flushInto(node, buf, scr, ls)
}

// flushInto applies the final sigma/delta thresholds (the problem
// definition, applied in every pruning mode) and stores survivors in the
// node. pps arrives in composite-key order; entries realizing the same
// canonical pattern are merged first, in that order — which fixes the
// occurrence merge order under the per-sequence cap and the sample
// tie-break, exactly as the former sorted-string-key flush did. Canonical
// output order needs no sort here: the node sorts its patterns lazily on
// first read (see TestFlushDeterminism).
func (m *miner) flushInto(node *hpg.Node, pps []*pendingPattern, scr *scratch, ls *LevelStats) {
	if scr.canon == nil {
		scr.canon = make(map[string]int)
	} else {
		clear(scr.canon)
	}
	n := 0
	for _, pp := range pps {
		key := pp.pat.Key()
		if i, ok := scr.canon[key]; ok {
			ex := pps[i]
			ex.bm.InPlaceOr(pp.bm)
			scr.putBitmap(pp.bm)
			if ex.occs != nil && pp.occs != nil {
				dst := scr.getStore(ex.occs.K())
				hpg.MergeOccsInto(dst, ex.occs, pp.occs, ex.occs.K(), m.cfg.MaxOccurrencesPerSeq)
				scr.putStore(ex.occs)
				scr.putStore(pp.occs)
				ex.occs = dst
			}
			ex.nOcc += pp.nOcc
			if pp.sampleSeq >= 0 && (ex.sampleSeq < 0 || pp.sampleSeq < ex.sampleSeq) {
				ex.sampleSeq = pp.sampleSeq
				ex.sampleOcc = pp.sampleOcc
			}
			continue
		}
		scr.canon[key] = n
		pps[n] = pp
		n++
	}
	maxSupp := m.maxEventSupport(node.Events)
	for _, pp := range pps[:n] {
		supp := pp.bm.Count()
		if supp < m.minSupp {
			scr.putBitmap(pp.bm)
			scr.putStore(pp.occs)
			continue
		}
		conf := float64(supp) / float64(maxSupp)
		if conf < m.cfg.MinConfidence {
			scr.putBitmap(pp.bm)
			scr.putStore(pp.occs)
			continue
		}
		if pp.occs != nil && pp.occs.NumSeqs() > 0 {
			// The survivor's sample is the store's first occurrence (see
			// pendingPattern.record) — copied only now, once per stored
			// pattern instead of once per composite.
			pp.sampleSeq = int(pp.occs.SeqAt(0))
			pp.sampleOcc = append(hpg.Occurrence(nil), pp.occs.Occ(0)...)
		}
		node.AddPattern(&hpg.PatternData{
			Pattern:    pp.pat,
			Bitmap:     pp.bm,
			Support:    supp,
			Confidence: conf,
			Occs:       pp.occs,
			SampleSeq:  pp.sampleSeq,
			SampleOcc:  pp.sampleOcc,
		})
		ls.Patterns++
		ls.Occurrences += pp.nOcc
	}
}

// mineLevelK is step 3 of Alg 1 (lines 15-20): frequent k-event patterns
// for k >= 3. It returns the number of green nodes added.
func (m *miner) mineLevelK(k int) int {
	t0 := time.Now()
	m.renegotiateWorkers(k)
	ls := LevelStats{K: k, Workers: m.workers()}
	prev := m.graph.Level(k - 1)
	level := hpg.NewLevel(k)

	// Filtered1Freq (Lemma 5): with transitivity pruning only events that
	// appear in some frequent (k-1)-pattern can extend; otherwise all
	// frequent singles are used.
	src := m.oneFreq
	if m.cfg.Pruning.trans() {
		src = prev.DistinctEvents()
	}

	var tasks []extendTask
	for _, node := range prev.Nodes() {
		// Establish the node's deterministic pattern order now, single
		// threaded: workers read Patterns() concurrently and the lazy
		// sort must not race.
		node.Patterns()
		last := node.Events[len(node.Events)-1]
		for _, e := range src {
			if e < last {
				// Extending with the largest event only generates each
				// multiset exactly once.
				continue
			}
			tasks = append(tasks, extendTask{parent: node, e: e})
		}
	}
	outcomes := runParallel(m.done, m.workers(), &m.scrPool, tasks, m.extendNodeTask)
	mergeOutcomes(level, &ls, outcomes)

	// Level k-1 occurrences can be released: only level k extends them.
	if !m.cfg.KeepGraph {
		for _, n := range prev.Nodes() {
			n.DropOccurrences()
		}
	}
	m.graph.Levels = append(m.graph.Levels, level)
	ls.Duration = time.Since(t0)
	m.finishLevel(ls)
	return ls.GreenNodes
}

// buildL2Index snapshots the finished level 2 into bitsets over the L1
// ranks: |L1|² bits of green node pairs for Lemma 5 and |L1|² ×
// NumRelations bits of frequent (a, rel, b) patterns for the iterative
// triple verification. Both are hit per candidate triple in the extension
// hot path, so a lookup is two slice reads and a bit test.
func (m *miner) buildL2Index() {
	l2 := m.graph.Level(2)
	if l2 == nil {
		return
	}
	m.rank = make([]int32, m.db.Vocab.Size())
	for e := range m.rank {
		m.rank[e] = -1
	}
	for r, e := range m.oneFreq {
		m.rank[e] = int32(r)
	}
	n1 := len(m.oneFreq)
	m.l2nodes = bitmap.New(n1 * n1)
	m.l2pats = bitmap.New(n1 * n1 * temporal.NumRelations)
	for _, n := range l2.Nodes() {
		a, b := n.Events[0], n.Events[1]
		m.l2nodes.Set(m.pairBit(a, b))
		m.l2nodes.Set(m.pairBit(b, a))
		for _, pd := range n.Patterns() {
			p := pd.Pattern
			m.l2pats.Set(m.pairBit(p.Events[0], p.Events[1])*temporal.NumRelations + int(p.Rels[0]) - 1)
		}
	}
}

// pairBit returns the bit of the ordered event pair (a, b) in l2nodes, or
// -1 when either event is outside L1. Its l2pats bits follow at
// pairBit*NumRelations + rel-1.
func (m *miner) pairBit(a, b events.EventID) int {
	ra, rb := m.rank[a], m.rank[b]
	if ra < 0 || rb < 0 {
		return -1
	}
	return int(ra)*len(m.oneFreq) + int(rb)
}

// lemma5Allows implements the Lemma 5 candidate filter: the new event must
// form at least one frequent relation (a green L2 node) with some event of
// the parent combination.
func (m *miner) lemma5Allows(node *hpg.Node, e events.EventID) bool {
	for _, ei := range node.Events {
		if p := m.pairBit(ei, e); p >= 0 && m.l2nodes.Get(p) {
			return true
		}
	}
	return false
}

// extendNode mines the k-event patterns of child = parent ∪ {e} by
// inserting instances of e into the stored occurrences of the parent's
// frequent (k-1)-patterns (Lemma 4: the new instance always relates to all
// existing ones). With transitivity pruning each new triple is verified
// against L2 (Lemmas 6-7) before the occurrence is accepted.
func (m *miner) extendNode(parent *hpg.Node, e events.EventID, child *hpg.Node, scr *scratch, ls *LevelStats) {
	scr.ext.reset()
	trans := m.cfg.Pruning.trans()
	keepOccs := m.keepOccsAt(child.K())
	dup := false // does e already occur in the parent's events?
	for _, pe := range parent.Events {
		if pe == e {
			dup = true
			break
		}
	}
	parentPatterns := parent.Patterns()

	// One monotone run cursor per parent pattern: the sequence sweep below
	// ascends, so each columnar store is walked front to back exactly once.
	if cap(scr.cursors) < len(parentPatterns) {
		scr.cursors = make([]int, len(parentPatterns))
	}
	cursors := scr.cursors[:len(parentPatterns)]
	for i := range cursors {
		cursors[i] = 0
	}

	// A monotone cursor into e's vertical list, like the run cursors.
	le, ce := &m.l1[e], 0
	scr.idxBuf = child.Bitmap.AppendIndices(scr.idxBuf[:0])
	for _, s32 := range scr.idxBuf {
		if m.cancelled() {
			break
		}
		seqIdx := int(s32)
		seq := m.db.Sequences[seqIdx]
		eIdxs := le.seek(&ce, s32)
		// Dedup occurrences across parent patterns: with duplicate events
		// the same child tuple can be reached from two parent occurrences.
		if dup {
			scr.seen.reset(child.K())
		}
		for pi, pd := range parentPatterns {
			st := pd.Occs
			if st == nil {
				continue
			}
			lo, hi := st.SeekRun(&cursors[pi], s32)
			for oi := lo; oi < hi; oi++ {
				occ := st.Occ(oi)
				for _, ie := range eIdxs {
					if dup && hpg.Occurrence(occ).Contains(ie) {
						continue
					}
					m.tryExtend(seq, seqIdx, pd.Pattern, int32(pi), occ, ie, dup, trans, keepOccs, scr, ls)
				}
			}
		}
	}

	m.flushExt(child, scr, ls)
}

// flushExt orders the Lk pending table by typed composite key — the single
// sort of the flush path — and hands it to the shared threshold flush.
func (m *miner) flushExt(node *hpg.Node, scr *scratch, ls *LevelStats) {
	scr.flushBuf = scr.ext.ordered(scr.flushBuf)
	m.flushInto(node, scr.flushBuf, scr, ls)
}

// tryExtend inserts instance ie into occurrence occ, classifies the new
// triples, and records the occurrence under its typed extension composite
// key (parent pattern index, insert position, new event, packed new
// relations). The child pattern is spliced only when the composite is seen
// for the first time; composites that canonicalize to the same pattern are
// merged in flushInto.
func (m *miner) tryExtend(seq *events.Sequence, seqIdx int, parentPat pattern.Pattern, parentIdx int32,
	occ []int32, ie int32, dup, trans, keepOccs bool, scr *scratch, ls *LevelStats) {

	k := len(occ) + 1
	// Instance order in a sequence equals chronological order, so the
	// insert position is found by index comparison.
	pos := len(occ)
	for i, idx := range occ {
		if ie < idx {
			pos = i
			break
		}
	}
	// Materialize the extended tuple once into the scratch buffer; the
	// dedup probe, span check, classification and the final arena append
	// all read it — no per-occurrence slice is ever heap-allocated.
	if cap(scr.tupleBuf) < k {
		scr.tupleBuf = make([]int32, 0, 2*k)
	}
	tb := scr.tupleBuf[:0]
	tb = append(tb, occ[:pos]...)
	tb = append(tb, ie)
	tb = append(tb, occ[pos:]...)
	scr.tupleBuf = tb

	if dup && !scr.seen.insert(tb) {
		return
	}

	// Monotone t_max span check (see spanOK).
	if m.cfg.TMax > 0 {
		firstStart := seq.Instances[tb[0]].Start
		maxEnd := seq.Instances[ie].End
		for _, idx := range occ {
			if e := seq.Instances[idx].End; e > maxEnd {
				maxEnd = e
			}
		}
		if maxEnd-firstStart > m.cfg.TMax {
			return
		}
	}

	// Classify the k-1 new triples between ie and every other role,
	// packing the relations into the composite key as they are accepted.
	newIns := seq.Instances[ie]
	if cap(scr.relsBuf) < k {
		scr.relsBuf = make([]temporal.Relation, k)
	}
	rels := scr.relsBuf[:k] // rels[j] for role j (pos slot unused)
	var packed uint64
	var overflow []byte // engages only beyond maxPackedRoles (k > 33)
	slot := 0
	for j := 0; j < k; j++ {
		if j == pos {
			continue
		}
		other := seq.Instances[tb[j]]
		var rel temporal.Relation
		if j < pos {
			rel = m.rel.Classify(other.Interval, newIns.Interval)
		} else {
			rel = m.rel.Classify(newIns.Interval, other.Interval)
		}
		if rel == temporal.None {
			return
		}
		if trans {
			// Iterative verification (Lemmas 4, 6, 7): the new triple must
			// itself be a frequent, confident 2-event pattern in L2.
			ok := false
			if j < pos {
				ok = m.l2HasPair(other.Event, rel, newIns.Event)
			} else {
				ok = m.l2HasPair(newIns.Event, rel, other.Event)
			}
			if !ok {
				ls.TripleChecksFailed++
				return
			}
		}
		rels[j] = rel
		if slot < maxPackedRoles {
			packed |= uint64(rel) << (2 * slot)
		} else {
			overflow = append(overflow, byte(rel))
		}
		slot++
	}

	key := extKey{parent: parentIdx, pos: int32(pos), event: newIns.Event, rels: packed}
	if overflow != nil {
		key.relsOv = string(overflow)
	}
	pp, created := scr.ext.get(key)
	if created {
		pp.pat = splice(parentPat, pos, newIns.Event, rels)
		pp.bm = scr.getBitmap(m.n)
		if keepOccs {
			pp.occs = scr.getStore(k)
		}
	}
	pp.record(m, seqIdx, tb)
}

// l2HasPair reports whether the triple (a, rel, b) was mined as a
// frequent, confident 2-event pattern at L2 — one bit test.
func (m *miner) l2HasPair(a events.EventID, rel temporal.Relation, b events.EventID) bool {
	p := m.pairBit(a, b)
	return p >= 0 && m.l2pats.Get(p*temporal.NumRelations+int(rel)-1)
}

// splice builds the (k)-event pattern obtained by inserting newEvent at
// chronological role pos into parent (a (k-1)-event pattern), with
// newRels[j] the relation between the inserted role and role j of the new
// pattern (j != pos).
func splice(parent pattern.Pattern, pos int, newEvent events.EventID, newRels []temporal.Relation) pattern.Pattern {
	k := parent.K() + 1
	evs := make([]events.EventID, 0, k)
	evs = append(evs, parent.Events[:pos]...)
	evs = append(evs, newEvent)
	evs = append(evs, parent.Events[pos:]...)

	rels := make([]temporal.Relation, pattern.TriLen(k))
	// Copy parent relations with shifted roles.
	for i := 0; i < parent.K(); i++ {
		ni := i
		if i >= pos {
			ni = i + 1
		}
		for j := i + 1; j < parent.K(); j++ {
			nj := j
			if j >= pos {
				nj = j + 1
			}
			rels[pattern.TriIndex(ni, nj, k)] = parent.Relation(i, j)
		}
	}
	// Insert the new triples.
	for j := 0; j < k; j++ {
		if j == pos {
			continue
		}
		if j < pos {
			rels[pattern.TriIndex(j, pos, k)] = newRels[j]
		} else {
			rels[pattern.TriIndex(pos, j, k)] = newRels[j]
		}
	}
	return pattern.New(evs, rels)
}

// buildResult assembles the deterministic result listing.
func (m *miner) buildResult() *Result {
	res := &Result{Stats: m.stats}
	if l1 := m.graph.Level(1); l1 != nil {
		for _, n := range l1.Nodes() {
			res.Singles = append(res.Singles, EventInfo{
				Event:      n.Events[0],
				Support:    n.Support,
				RelSupport: float64(n.Support) / float64(m.n),
				Bitmap:     n.Bitmap,
			})
		}
		sort.Slice(res.Singles, func(i, j int) bool { return res.Singles[i].Event < res.Singles[j].Event })
	}
	for k := 2; k <= m.graph.Height(); k++ {
		for _, node := range m.graph.Level(k).Nodes() {
			for _, pd := range node.Patterns() {
				res.Patterns = append(res.Patterns, PatternInfo{
					Pattern:    pd.Pattern,
					Support:    pd.Support,
					RelSupport: float64(pd.Support) / float64(m.n),
					Confidence: pd.Confidence,
					SampleSeq:  pd.SampleSeq,
					Sample:     pd.SampleOcc,
				})
			}
		}
	}
	sortPatterns(res.Patterns)
	if m.cfg.KeepGraph {
		res.Graph = m.graph
	} else if h := m.graph.Height(); h >= 2 {
		for _, n := range m.graph.Level(h).Nodes() {
			n.DropOccurrences()
		}
	}
	return res
}

// workers returns the effective parallelism of the current level.
func (m *miner) workers() int {
	if m.curWorkers <= 1 {
		return 1
	}
	return m.curWorkers
}

// renegotiateWorkers consults Config.WorkersFunc at the boundary before
// level k. The returned grant applies to the whole level; a negative
// return (or a nil func) keeps the current one.
func (m *miner) renegotiateWorkers(k int) {
	if m.cfg.WorkersFunc == nil {
		return
	}
	if w := m.cfg.WorkersFunc(k); w >= 0 {
		m.curWorkers = w
	}
}
