package hpg

import (
	"fmt"
	"slices"
	"sort"

	"ftpm/internal/bitmap"
	"ftpm/internal/events"
	"ftpm/internal/pattern"
)

// Occurrence is one realization of a pattern inside a sequence: the indexes
// (into Sequence.Instances) of the instances filling the pattern's
// chronological roles, in role order. Bulk occurrence storage lives in
// OccStore; the standalone slice type remains for samples and rendering.
type Occurrence []int32

// Contains reports whether instance index idx is part of the occurrence.
func (o Occurrence) Contains(idx int32) bool {
	for _, v := range o {
		if v == idx {
			return true
		}
	}
	return false
}

// PatternData is one frequent temporal pattern stored in a node.
type PatternData struct {
	Pattern    pattern.Pattern
	Bitmap     *bitmap.Bitmap // sequences supporting the pattern
	Support    int
	Confidence float64
	// Occs holds the occurrence tuples realizing the pattern, columnar by
	// sequence. Level k+1 extends these; nil once released.
	Occs *OccStore
	// SampleSeq and SampleOcc retain one representative occurrence for
	// rendering even after Occs is released (-1 when unknown).
	SampleSeq int
	SampleOcc Occurrence
}

// Node is one k-event combination: a sorted multiset of event ids with the
// joint bitmap and the frequent patterns of the combination.
type Node struct {
	Events []events.EventID // sorted ascending (multiset)
	Key    string
	Bitmap *bitmap.Bitmap // sequences containing all events
	// Support is the combination support supp(E1,...,Ek) (Def 3.13).
	Support int
	// GroupConfidence is conf(E1,...,Ek) = Support / max single support
	// (Def 3.15 generalized); Lemma 3 filters on it.
	GroupConfidence float64

	patterns map[string]*PatternData
	order    []string // pattern keys; sorted lazily for deterministic iteration
	sorted   bool
	view     []*PatternData // cached sorted snapshot; invalidated by AddPattern
}

// NewNode creates a node for the sorted event multiset.
func NewNode(ms []events.EventID, bm *bitmap.Bitmap, support int, groupConf float64) *Node {
	for i := 1; i < len(ms); i++ {
		if ms[i-1] > ms[i] {
			panic(fmt.Sprintf("hpg: node events not sorted: %v", ms))
		}
	}
	return &Node{
		Events:          ms,
		Key:             pattern.MultisetKey(ms),
		Bitmap:          bm,
		Support:         support,
		GroupConfidence: groupConf,
		patterns:        make(map[string]*PatternData),
	}
}

// K returns the combination size.
func (n *Node) K() int { return len(n.Events) }

// AddPattern stores a frequent pattern in the node. Adding the same pattern
// twice panics — the miner aggregates occurrences before insertion.
func (n *Node) AddPattern(pd *PatternData) {
	key := pd.Pattern.Key()
	if _, dup := n.patterns[key]; dup {
		panic("hpg: duplicate pattern inserted")
	}
	n.patterns[key] = pd
	n.order = append(n.order, key)
	n.sorted = false
	n.view = nil
}

// Pattern returns the stored pattern with the given key, or nil.
func (n *Node) Pattern(key string) *PatternData { return n.patterns[key] }

// NumPatterns returns the number of stored frequent patterns.
func (n *Node) NumPatterns() int { return len(n.patterns) }

// Patterns iterates the node's patterns in deterministic (key) order.
// The order is established lazily on first read after inserts, and the
// returned slice is cached until the next insert: the miner re-reads a
// parent node's patterns once per extension candidate, and rebuilding the
// snapshot each time would allocate in the verification hot path. Callers
// must not mutate the returned slice. Concurrent readers are safe only
// once the snapshot exists — the miner establishes it single-threaded
// before fanning out (see mineLevelK).
func (n *Node) Patterns() []*PatternData {
	if !n.sorted {
		sort.Strings(n.order)
		n.sorted = true
		n.view = nil
	}
	if n.view == nil {
		n.view = make([]*PatternData, len(n.order))
		for i, k := range n.order {
			n.view[i] = n.patterns[k]
		}
	}
	return n.view
}

// DropOccurrences releases the occurrence storage of all patterns — called
// once a level can no longer be extended, to bound memory.
func (n *Node) DropOccurrences() {
	for _, pd := range n.patterns {
		pd.Occs = nil
	}
}

// Level is one level of the graph: the frequent k-event combinations.
type Level struct {
	K      int
	nodes  map[string]*Node
	order  []string
	sorted bool
}

// NewLevel creates an empty level for combination size k.
func NewLevel(k int) *Level {
	return &Level{K: k, nodes: make(map[string]*Node)}
}

// Add inserts a node; duplicate keys panic.
func (l *Level) Add(n *Node) {
	if n.K() != l.K {
		panic(fmt.Sprintf("hpg: node of size %d added to level %d", n.K(), l.K))
	}
	if _, dup := l.nodes[n.Key]; dup {
		panic("hpg: duplicate node inserted")
	}
	l.nodes[n.Key] = n
	l.order = append(l.order, n.Key)
	l.sorted = false
}

// Get returns the node for the sorted multiset, or nil.
func (l *Level) Get(ms []events.EventID) *Node { return l.nodes[pattern.MultisetKey(ms)] }

// GetKey returns the node with the given key, or nil.
func (l *Level) GetKey(key string) *Node { return l.nodes[key] }

// Size returns the number of nodes.
func (l *Level) Size() int { return len(l.nodes) }

// Nodes iterates nodes in deterministic (key) order. The order is
// established lazily on first read after inserts.
func (l *Level) Nodes() []*Node {
	if !l.sorted {
		sort.Strings(l.order)
		l.sorted = true
	}
	out := make([]*Node, len(l.order))
	for i, k := range l.order {
		out[i] = l.nodes[k]
	}
	return out
}

// Remove deletes a node (brown-node removal of step 2.2).
func (l *Level) Remove(key string) {
	if _, ok := l.nodes[key]; !ok {
		return
	}
	delete(l.nodes, key)
	for i, k := range l.order {
		if k == key {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
}

// DistinctEvents returns the distinct single events appearing in the
// level's nodes (the set D_{k-1} of Lemma 5's Filtered1Freq).
func (l *Level) DistinctEvents() []events.EventID {
	var out []events.EventID
	for _, n := range l.nodes {
		out = append(out, n.Events...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Graph is the Hierarchical Pattern Graph: Levels[0] is L1.
type Graph struct {
	Levels []*Level
}

// Level returns L_k (1-based like the paper), or nil if not mined.
func (g *Graph) Level(k int) *Level {
	if k < 1 || k > len(g.Levels) {
		return nil
	}
	return g.Levels[k-1]
}

// Height returns the deepest mined level.
func (g *Graph) Height() int { return len(g.Levels) }
