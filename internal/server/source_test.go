package server

import (
	"testing"

	"ftpm"
)

// goldenFingerprint is the content fingerprint of goldenDB. Fingerprints
// are stored in WAL records and segment footers and key the result
// cache, so the hashed byte stream must never change: this value was
// computed by the original per-sample hasher.
const goldenFingerprint = "4cd83a9db7c99e40b157fc6513a011188652131ca8d631d1e933a7e02684e200"

// goldenDB is a fixed two-series database with unequal alphabets, runs
// of several lengths and a symbol that never occurs.
func goldenDB(t *testing.T) *ftpm.SymbolicDB {
	t.Helper()
	sdb, err := ftpm.NewSymbolicDB(
		&ftpm.SymbolicSeries{Name: "A", Start: 100, Step: 7,
			Alphabet: []string{"Off", "On"}, Symbols: []int{0, 0, 1, 1, 1, 0, 1, 0, 0, 0}},
		&ftpm.SymbolicSeries{Name: "Temp", Start: 100, Step: 7,
			Alphabet: []string{"Lo", "Mid", "Hi", "Never"}, Symbols: []int{2, 1, 1, 0, 0, 0, 0, 2, 2, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sdb
}

func TestFingerprintGolden(t *testing.T) {
	sdb := goldenDB(t)
	if got := fingerprintSource(sdb); got != goldenFingerprint {
		t.Fatalf("fingerprint = %s, want %s", got, goldenFingerprint)
	}
	// A heap chain over the same content — base plus one append delta,
	// with the seam inside a run — hashes identically.
	base, err := sdb.SliceSamples(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := sdb.SliceSamples(4, sdb.Len())
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintSource(&chainSource{base: base, tail: delta}); got != goldenFingerprint {
		t.Fatalf("chained fingerprint = %s, want %s", got, goldenFingerprint)
	}
}
