package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reopen closes l and opens the directory again.
func reopen(t *testing.T, l *Log) (*Log, Recovery) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	nl, rec, err := Open(l.dir)
	if err != nil {
		t.Fatal(err)
	}
	return nl, rec
}

// writeSnapshot replaces the snapshot with data, written as one
// streamed chunk.
func writeSnapshot(l *Log, data []byte) error {
	w, err := l.BeginSnapshot()
	if err != nil {
		return err
	}
	if err := w.WriteChunk(data); err != nil {
		return err
	}
	return w.Commit()
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, rec, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Records) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh dir recovery = %+v", rec)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(Kind(i%3), []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.WALRecords() != 5 || l.LSN() != 5 {
		t.Fatalf("wal records = %d, lsn = %d", l.WALRecords(), l.LSN())
	}

	l, rec = reopen(t, l)
	defer l.Close()
	if len(rec.Records) != 5 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	for i, r := range rec.Records {
		if r.LSN != uint64(i+1) || r.Kind != Kind(i%3) || string(r.Data) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// LSNs continue after the replayed history.
	if err := l.Append(9, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if l.LSN() != 6 {
		t.Fatalf("lsn after reopen+append = %d, want 6", l.LSN())
	}
}

func TestSnapshotResetsWAL(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeSnapshot(l, []byte("state@3")); err != nil {
		t.Fatal(err)
	}
	if l.WALRecords() != 0 {
		t.Fatalf("wal records after snapshot = %d", l.WALRecords())
	}
	if err := l.Append(2, []byte("after")); err != nil {
		t.Fatal(err)
	}

	l, rec := reopen(t, l)
	defer l.Close()
	if string(rec.Snapshot) != "state@3" || rec.SnapshotLSN != 3 {
		t.Fatalf("snapshot = %q lsn %d", rec.Snapshot, rec.SnapshotLSN)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "after" || rec.Records[0].LSN != 4 {
		t.Fatalf("post-snapshot records = %+v", rec.Records)
	}
}

// TestSnapshotLSNSkip simulates a crash between snapshot replacement and
// WAL truncation: the stale WAL still holds records the snapshot already
// covers, and replay must skip them.
func TestSnapshotLSNSkip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Save the pre-snapshot WAL, snapshot (which rewrites it empty), then put
	// the stale WAL back — exactly the on-disk state of that crash.
	walPath := filepath.Join(dir, walName)
	stale, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(l, []byte("covers-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	nl, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if string(rec.Snapshot) != "covers-2" || len(rec.Records) != 0 {
		t.Fatalf("stale-WAL recovery = snapshot %q, %d records", rec.Snapshot, len(rec.Records))
	}
	// New appends must not collide with the covered LSNs.
	if err := nl.Append(1, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if nl.LSN() != 3 {
		t.Fatalf("lsn = %d, want 3", nl.LSN())
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for _, p := range payloads {
		if err := l.Append(7, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-record.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}

	nl, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 || rec.TruncatedBytes == 0 {
		t.Fatalf("torn recovery = %d records, %d truncated bytes", len(rec.Records), rec.TruncatedBytes)
	}
	for i, r := range rec.Records {
		if !bytes.Equal(r.Data, payloads[i]) {
			t.Fatalf("record %d = %q", i, r.Data)
		}
	}
	// The file was truncated in place: appending and reopening again is
	// clean, with the new record following the surviving ones.
	if err := nl.Append(7, []byte("four")); err != nil {
		t.Fatal(err)
	}
	nl, rec = reopen(t, nl)
	defer nl.Close()
	if len(rec.Records) != 3 || rec.TruncatedBytes != 0 {
		t.Fatalf("post-repair recovery = %d records, %d truncated", len(rec.Records), rec.TruncatedBytes)
	}
	if string(rec.Records[2].Data) != "four" {
		t.Fatalf("appended record = %q", rec.Records[2].Data)
	}
}

func TestCorruptMiddleRecordCutsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(1, bytes.Repeat([]byte{byte('a' + i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte inside the second record's payload.
	walPath := filepath.Join(dir, walName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(fileMagic) + (recHeader + 32) + recHeader + 10
	data[mid] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	nl, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	// Framing cannot resynchronize past a corrupt record: only the clean
	// prefix survives.
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != string(bytes.Repeat([]byte{'a'}, 32)) {
		t.Fatalf("recovery after mid-file corruption = %+v", rec.Records)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("corrupt suffix must be reported as truncated")
	}
}

func TestForeignWALReset(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walName)
	if err := os.WriteFile(walPath, []byte("this is not a ftpm log"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(rec.Records) != 0 || rec.TruncatedBytes == 0 {
		t.Fatalf("foreign-file recovery = %+v", rec)
	}
	if err := l.Append(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	l2, rec2 := reopen(t, l)
	defer l2.Close()
	if len(rec2.Records) != 1 || string(rec2.Records[0].Data) != "fresh" {
		t.Fatalf("recovery after reset = %+v", rec2)
	}
}

func TestDamagedSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := writeSnapshot(l, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapName)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	nl, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer nl.Close()
	if !rec.SnapshotDamaged || rec.Snapshot != nil {
		t.Fatalf("damaged snapshot recovery = %+v", rec)
	}
	// With the snapshot gone its LSN filter is gone too: the surviving
	// WAL records (those after the snapshot) still replay.
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "y" {
		t.Fatalf("records with damaged snapshot = %+v", rec.Records)
	}
}

func TestClosedLog(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close must be a no-op")
	}
	if err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("append on closed log = %v, want ErrClosed", err)
	}
	if err := writeSnapshot(l, nil); err != ErrClosed {
		t.Fatalf("snapshot on closed log = %v, want ErrClosed", err)
	}
}
