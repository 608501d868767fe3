package ftpm

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON export of mining results: a stable, self-describing document with
// event names resolved through the vocabulary, so downstream tools do not
// need the internal event ids.

// ResultJSON is the document shape of Result.ExportJSON.
type ResultJSON struct {
	Sequences       int           `json:"sequences"`
	AbsoluteSupport int           `json:"absolute_support"`
	Mu              float64       `json:"mu,omitempty"`
	Singles         []SingleJSON  `json:"frequent_events"`
	Patterns        []PatternJSON `json:"patterns"`
}

// SingleJSON is one frequent single event.
type SingleJSON struct {
	Event      string  `json:"event"`
	Support    int     `json:"support"`
	RelSupport float64 `json:"rel_support"`
}

// TripleJSON is one (event, relation, event) element of a pattern.
type TripleJSON struct {
	A        string `json:"a"`
	Relation string `json:"relation"` // "follow" | "contain" | "overlap"
	B        string `json:"b"`
}

// IntervalJSON is a sample instance interval.
type IntervalJSON struct {
	Event string `json:"event"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// PatternJSON is one mined temporal pattern.
type PatternJSON struct {
	K          int            `json:"k"`
	Events     []string       `json:"events"` // chronological role order
	Triples    []TripleJSON   `json:"triples"`
	Support    int            `json:"support"`
	RelSupport float64        `json:"rel_support"`
	Confidence float64        `json:"confidence"`
	Sample     []IntervalJSON `json:"sample,omitempty"`
}

func relationName(r Relation) string {
	switch r {
	case Follow:
		return "follow"
	case Contain:
		return "contain"
	case Overlap:
		return "overlap"
	}
	return "none"
}

// Document builds the exportable representation of the result.
func (r *Result) Document() ResultJSON {
	doc := ResultJSON{
		Sequences:       r.Stats.Sequences,
		AbsoluteSupport: r.Stats.AbsoluteSupport,
		Mu:              r.Mu,
	}
	vocab := r.DB.Vocab
	for _, s := range r.Singles {
		doc.Singles = append(doc.Singles, SingleJSON{
			Event:      vocab.Name(s.Event),
			Support:    s.Support,
			RelSupport: s.RelSupport,
		})
	}
	for _, p := range r.Patterns {
		pj := PatternJSON{
			K:          p.Pattern.K(),
			Support:    p.Support,
			RelSupport: p.RelSupport,
			Confidence: p.Confidence,
		}
		for _, e := range p.Pattern.Events {
			pj.Events = append(pj.Events, vocab.Name(e))
		}
		for _, t := range p.Pattern.Triples() {
			pj.Triples = append(pj.Triples, TripleJSON{
				A:        vocab.Name(t.A),
				Relation: relationName(t.Rel),
				B:        vocab.Name(t.B),
			})
		}
		if p.SampleSeq >= 0 && p.SampleSeq < len(r.DB.Sequences) && len(p.Sample) == p.Pattern.K() {
			seq := r.DB.Sequences[p.SampleSeq]
			for i, idx := range p.Sample {
				ins := seq.Instances[idx]
				pj.Sample = append(pj.Sample, IntervalJSON{
					Event: vocab.Name(p.Pattern.Events[i]),
					Start: ins.Start,
					End:   ins.End,
				})
			}
		}
		doc.Patterns = append(doc.Patterns, pj)
	}
	return doc
}

// ExportJSON writes the result as an indented JSON document followed by a
// newline (the bytes json.Encoder with SetIndent would write). The
// document is encoded once, into a buffer MarshalIndent sizes itself.
func (r *Result) ExportJSON(w io.Writer) error {
	if r.DB == nil {
		return fmt.Errorf("ftpm: result has no sequence database attached")
	}
	b, err := json.MarshalIndent(r.Document(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
