package ftpm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ftpm"
)

func TestExportJSON(t *testing.T) {
	db := tableIDB(t)
	res, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport: 0.7, MinConfidence: 0.7, NumWindows: 4, MaxPatternSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// The export is byte for byte what an indenting json.Encoder writes.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res.Document()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want.Bytes()) {
		t.Fatal("export differs from the json.Encoder encoding")
	}
	var doc ftpm.ResultJSON
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.Sequences != 4 || doc.AbsoluteSupport != 3 {
		t.Errorf("header wrong: %+v", doc)
	}
	if len(doc.Singles) != 11 {
		t.Errorf("singles = %d, want 11", len(doc.Singles))
	}
	if len(doc.Patterns) != len(res.Patterns) {
		t.Errorf("patterns = %d, want %d", len(doc.Patterns), len(res.Patterns))
	}
	for _, p := range doc.Patterns {
		if p.K != len(p.Events) {
			t.Errorf("k=%d but %d events", p.K, len(p.Events))
		}
		if len(p.Triples) != p.K*(p.K-1)/2 {
			t.Errorf("triple count wrong for k=%d: %d", p.K, len(p.Triples))
		}
		for _, tr := range p.Triples {
			switch tr.Relation {
			case "follow", "contain", "overlap":
			default:
				t.Errorf("bad relation name %q", tr.Relation)
			}
			if !strings.Contains(tr.A, "=") || !strings.Contains(tr.B, "=") {
				t.Errorf("events must be name-resolved: %+v", tr)
			}
		}
		if len(p.Sample) != p.K {
			t.Errorf("sample must cover all roles, got %d of %d", len(p.Sample), p.K)
		}
		for _, iv := range p.Sample {
			if iv.End < iv.Start {
				t.Errorf("sample interval inverted: %+v", iv)
			}
		}
	}
}

func TestExportJSONApproxCarriesMu(t *testing.T) {
	db := tableIDB(t)
	res, err := ftpm.MineSymbolic(context.Background(), db, ftpm.Options{
		MinSupport: 0.7, MinConfidence: 0.7, NumWindows: 4,
		Approx: &ftpm.ApproxOptions{Density: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := res.Document()
	if doc.Mu <= 0 {
		t.Errorf("µ missing from export: %v", doc.Mu)
	}
}

func TestExportJSONRequiresDB(t *testing.T) {
	r := &ftpm.Result{}
	if err := r.ExportJSON(&bytes.Buffer{}); err == nil {
		t.Error("export without a database must error")
	}
}
