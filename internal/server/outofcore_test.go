package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ftpm"
	"ftpm/internal/server/store"
)

// Out-of-core storage end-to-end tests: mining from mmap'd segments must
// be byte-identical to mining from RAM, fresh-upload WAL records must be
// small, orphan segments from a crash inside the seal window must be
// collected, event ids must survive restarts, and the firehose
// subscriber quota must shed with the standard envelope.

// periodicCSV builds an upload body of nSeries square waves flipping
// every `period` samples, phase-shifted per series — long runs, so the
// columnar segment encoding is tiny relative to the sample count.
func periodicCSV(nSeries, nSamples, period int) string {
	var sb strings.Builder
	sb.WriteString("time")
	for s := 0; s < nSeries; s++ {
		fmt.Fprintf(&sb, ",S%d", s)
	}
	sb.WriteByte('\n')
	for i := 0; i < nSamples; i++ {
		fmt.Fprintf(&sb, "%d", i)
		for s := 0; s < nSeries; s++ {
			if ((i+s*period/2)/period)%2 == 0 {
				sb.WriteString(",1")
			} else {
				sb.WriteString(",0")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSegmentMiningByteIdentical is the storage-equivalence property
// test: the same CSV uploaded to a durable (segment-backed) server and
// to an in-memory server, mined with every job kind across shard counts,
// must produce byte-identical result documents. Runs under -race in
// short mode — it is the core correctness claim of the storage layer.
func TestSegmentMiningByteIdentical(t *testing.T) {
	_, tsSeg := testServer(t, Options{Workers: 2, DataDir: t.TempDir()})
	_, tsMem := testServer(t, Options{Workers: 2})

	for _, shards := range []int{1, 2, 7} {
		query := fmt.Sprintf("name=k%d&threshold=0.5&shards=%d", shards, shards)
		dsSeg := uploadCSV(t, tsSeg.URL, query, smallCSV())
		dsMem := uploadCSV(t, tsMem.URL, query, smallCSV())
		if dsSeg.ID != dsMem.ID {
			t.Fatalf("dataset ids diverged: %s vs %s", dsSeg.ID, dsMem.ID)
		}
		if dsSeg.Storage != "segment" || dsSeg.ResidentBytes != 0 || dsSeg.SegmentBytes <= 0 || dsSeg.Segments != 1 {
			t.Fatalf("durable upload storage = %+v, want segment-backed with 0 resident bytes", dsSeg)
		}
		if dsMem.Storage != "memory" || dsMem.ResidentBytes <= 0 || dsMem.SegmentBytes != 0 {
			t.Fatalf("in-memory upload storage = %+v, want memory-backed", dsMem)
		}

		for _, req := range []MiningRequest{
			{DatasetID: dsSeg.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 3},
			{DatasetID: dsSeg.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
				Approx: &ApproxRequest{Density: 0.8}},
			{DatasetID: dsSeg.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
				Approx: &ApproxRequest{Density: 0.6, EventLevel: true}},
		} {
			jobSeg := mineDone(t, tsSeg.URL, req)
			jobMem := mineDone(t, tsMem.URL, req)
			if jobSeg.ID != jobMem.ID {
				t.Fatalf("job ids diverged: %s vs %s", jobSeg.ID, jobMem.ID)
			}
			code, docSeg := getRaw(t, tsSeg.URL+"/v1/jobs/"+jobSeg.ID+"/result")
			if code != 200 {
				t.Fatalf("segment result: status %d", code)
			}
			code, docMem := getRaw(t, tsMem.URL+"/v1/jobs/"+jobMem.ID+"/result")
			if code != 200 {
				t.Fatalf("memory result: status %d", code)
			}
			if string(docSeg) != string(docMem) {
				t.Fatalf("shards=%d job %s: segment-backed result differs from in-memory result\nsegment: %s\nmemory:  %s",
					shards, jobSeg.ID, docSeg, docMem)
			}
		}
	}
}

// TestFreshUploadWALIsMetadataOnly checks the record-size claim: a
// durable upload's whole WAL must be an order of magnitude smaller than
// the legacy full-payload dataset record for the same content.
func TestFreshUploadWALIsMetadataOnly(t *testing.T) {
	csv := periodicCSV(4, 20000, 100)
	_, tsSeg := testServer(t, Options{Workers: 1, DataDir: t.TempDir()})
	srvMem, tsMem := testServer(t, Options{Workers: 1})

	uploadCSV(t, tsSeg.URL, "name=wal&threshold=0.5&shards=1", csv)
	dsMem := uploadCSV(t, tsMem.URL, "name=wal&threshold=0.5&shards=1", csv)

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, tsSeg.URL+"/v1/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Persistence == nil || m.Persistence.WALBytes <= 0 {
		t.Fatalf("no persistence metrics after durable upload: %+v", m.Persistence)
	}
	if m.Storage.SegmentsTotal != 1 || m.Storage.DatasetSegmentBytes <= 0 || m.Storage.DatasetResidentBytes != 0 {
		t.Fatalf("storage metrics = %+v, want one segment and no resident payload", m.Storage)
	}

	d, ok := srvMem.reg.get(dsMem.ID)
	if !ok {
		t.Fatal("memory dataset missing")
	}
	legacy, err := json.Marshal(legacyPayloadRecordOf(d.id, d.view().src.(*ftpm.SymbolicDB)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(legacy)) < 10*m.Persistence.WALBytes {
		t.Fatalf("WAL after fresh upload = %d bytes, legacy payload record = %d bytes; want >= 10x shrink",
			m.Persistence.WALBytes, len(legacy))
	}
}

// legacyPayloadRecord is the full-payload dataset record shape that
// data directories written before segment storage carry: every symbol
// of every series inline in the WAL record.
type legacyPayloadRecord struct {
	ID        string         `json:"id"`
	Name      string         `json:"name"`
	CreatedAt time.Time      `json:"created_at"`
	Shards    int            `json:"shards"`
	Series    []legacySeries `json:"series"`
}

type legacySeries struct {
	Name     string   `json:"name"`
	Start    int64    `json:"start"`
	Step     int64    `json:"step"`
	Alphabet []string `json:"alphabet"`
	Symbols  []int    `json:"symbols"`
}

func legacyPayloadRecordOf(id string, sdb *ftpm.SymbolicDB) legacyPayloadRecord {
	rec := legacyPayloadRecord{ID: id, Name: "legacy", Shards: 1}
	for _, s := range sdb.Series {
		rec.Series = append(rec.Series, legacySeries{Name: s.Name, Start: int64(s.Start), Step: int64(s.Step),
			Alphabet: s.Alphabet, Symbols: s.Symbols})
	}
	return rec
}

// TestLegacyPayloadRecordRefused pins what happens to a data directory
// written before segment storage: the restart refuses, naming the
// dataset, instead of dropping it — a later compaction would otherwise
// lose the payload for good — and leaves the log and the segments
// directory as they were.
func TestLegacyPayloadRecordRefused(t *testing.T) {
	dir := t.TempDir()
	data, err := json.Marshal(legacyPayloadRecordOf("ds-3", fuzzBaseSDB(t)))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(kindDatasetAdded, data); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Options{Workers: 1, DataDir: dir})
	if err == nil {
		srv.Close()
		t.Fatal("New accepted a full-payload dataset record")
	}
	if !strings.Contains(err.Error(), "ds-3") {
		t.Fatalf("New error %q does not name the dataset", err)
	}

	l, rec, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Snapshot != nil || len(rec.Records) != 1 ||
		rec.Records[0].Kind != kindDatasetAdded || !bytes.Equal(rec.Records[0].Data, data) {
		t.Fatalf("log after refused restart = snapshot %d bytes, %d records; want exactly the planted record",
			len(rec.Snapshot), len(rec.Records))
	}
	entries, err := os.ReadDir(filepath.Join(dir, "segments"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("refused restart created segment files: %v", entries)
	}
}

// TestOrphanSegmentCleanupAndAppendRetry exercises the crash window
// between sealing a delta segment and logging its WAL record: the sealed
// file must be collected as an orphan on restart, the dataset must come
// back at its pre-append generation, and retrying the same append must
// succeed (the deterministic segment name replaces the leftover).
func TestOrphanSegmentCleanupAndAppendRetry(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Options{Workers: 1, DataDir: dir})
	ds := uploadCSV(t, ts1.URL, "name=a&threshold=0.5&shards=1", smallCSV())

	// Kill the log underneath the server, then append: the delta segment
	// seals and the generation swaps in memory, but the WAL record is
	// lost — exactly the on-disk state of a crash inside the seal window.
	crash(srv1)
	rows := appendRows(1, 30)
	code, _ := postAppend(t, ts1.URL, ds.ID, "", appendNDJSON(rows, 24, 30))
	if code != http.StatusOK {
		t.Fatalf("append with dead log: status %d", code)
	}
	delta := filepath.Join(dir, "segments", ds.ID+"-g1.seg")
	if _, err := os.Stat(delta); err != nil {
		t.Fatalf("delta segment not sealed: %v", err)
	}
	// Plant a stray temp file too: a crash mid-WriteSegment leaves one.
	stray := filepath.Join(dir, "segments", ds.ID+"-g2.seg.tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.Close()

	_, ts2 := testServer(t, Options{Workers: 1, DataDir: dir})
	var got DatasetInfo
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/datasets/"+ds.ID, nil, &got); code != 200 {
		t.Fatalf("dataset after restart: status %d", code)
	}
	if got.Samples != ds.Samples || got.Generation != 0 {
		t.Fatalf("dataset after restart = %d samples gen %d, want the pre-append %d samples gen 0",
			got.Samples, got.Generation, ds.Samples)
	}
	for _, orphan := range []string{delta, stray} {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived restart (err=%v)", orphan, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "segments", ds.ID+"-g0.seg")); err != nil {
		t.Fatalf("live segment collected: %v", err)
	}

	// The retried append replays cleanly over the recovered state.
	code, body := postAppend(t, ts2.URL, ds.ID, "", appendNDJSON(rows, 24, 30))
	if code != http.StatusOK {
		t.Fatalf("retried append: status %d: %s", code, body)
	}
	var after DatasetInfo
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Samples != ds.Samples+6 || after.Generation != 1 || after.Segments != 2 {
		t.Fatalf("after retry = %+v, want %d samples gen 1 across 2 segments", after, ds.Samples+6)
	}
	mineDone(t, ts2.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2})
}

// TestEventIDsSurviveRestart checks the hub sequence re-seeds past every
// persisted event id, so a client's Last-Event-ID from before the bounce
// never collides with a fresh post-restart id.
func TestEventIDsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	srv1, ts1 := testServer(t, Options{Workers: 1, DataDir: dir})
	ds := uploadCSV(t, ts1.URL, "name=a&threshold=0.5&shards=1", smallCSV())
	mineDone(t, ts1.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2})
	before := srv1.hub.LastID()
	if before == 0 {
		t.Fatal("no events published before restart")
	}
	ts1.Close()
	srv1.Close()

	srv2, ts2 := testServer(t, Options{Workers: 1, DataDir: dir})
	if after := srv2.hub.LastID(); after < before {
		t.Fatalf("hub restarted at id %d, below the persisted %d", after, before)
	}
	// New events continue strictly past the old sequence.
	job := mineDone(t, ts2.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.3, NumWindows: 2, MaxPatternSize: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := readSSE(t, ctx, ts2.URL+"/v1/jobs/"+job.ID+"/events", "", nil)
	if len(events) == 0 {
		t.Fatal("no replayed events for the post-restart job")
	}
	for _, e := range events {
		if e.id != 0 && e.id <= before {
			t.Fatalf("post-restart event id %d not past the pre-restart maximum %d", e.id, before)
		}
	}
}

// TestFirehoseSubscriberQuota holds the single allowed firehose slot and
// checks the next connection is shed with the standard 429 envelope while
// per-job streams stay admitted; releasing the slot readmits.
func TestFirehoseSubscriberQuota(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, MaxStreamSubscribers: 1})
	ds := uploadCSV(t, ts.URL, "name=a&threshold=0.5&shards=1", smallCSV())
	job := mineDone(t, ts.URL, MiningRequest{DatasetID: ds.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2})

	held, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	if held.StatusCode != http.StatusOK {
		t.Fatalf("first firehose: status %d", held.StatusCode)
	}

	shed, err := http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(shed.Body)
	shed.Body.Close()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second firehose: status %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Error.Code != codeQuotaExceeded {
		t.Fatalf("shed body = %s (err %v), want a %s envelope", body, err, codeQuotaExceeded)
	}

	// Per-job streams are not counted against the firehose quota.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if events := readSSE(t, ctx, ts.URL+"/v1/jobs/"+job.ID+"/events", "", nil); len(events) == 0 {
		t.Fatal("per-job stream starved by the firehose quota")
	}

	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m); code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	if m.Events.RejectedStreams < 1 || m.Events.FirehoseStreams != 1 {
		t.Fatalf("events metrics = %+v, want >=1 rejection and 1 held firehose stream", m.Events)
	}

	// Releasing the held slot readmits the next subscriber.
	held.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/events")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("firehose slot never released: status %d", code)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestOutOfCoreSoak uploads a dataset two orders of magnitude larger
// than the usual test fixtures to a durable server and mines it. CI runs
// it under a GOMEMLIMIT well below the dataset's expanded size: the heap
// never holds the symbol payload (the mmap'd column does), so the run
// must stay healthy.
func TestOutOfCoreSoak(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2, DataDir: t.TempDir()})
	ds := uploadCSV(t, ts.URL, "name=soak&threshold=0.5&shards=2", periodicCSV(4, 200000, 100))
	if ds.Storage != "segment" || ds.ResidentBytes != 0 {
		t.Fatalf("soak dataset = %+v, want segment-backed with no resident payload", ds)
	}
	if ds.Samples != 200000 {
		t.Fatalf("soak dataset has %d samples", ds.Samples)
	}
	mineDone(t, ts.URL, MiningRequest{
		DatasetID: ds.ID, MinSupport: 0.4, NumWindows: 8, MaxPatternSize: 2,
		Approx: &ApproxRequest{Density: 0.6, EventLevel: true},
	})
}
