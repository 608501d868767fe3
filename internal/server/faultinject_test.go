package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"ftpm/internal/server/store"
)

// End-to-end fault injection: a server on an erroring filesystem must
// degrade loudly instead of corrupting state — writes refuse with 503
// "degraded", reads keep answering, readiness flips, and a restart from
// the surviving files always lands on a state the API actually
// reported.

// decodeAPIError unmarshals an error envelope and returns its code.
func decodeAPIError(t *testing.T, body []byte) string {
	t.Helper()
	var apiErr apiError
	if err := json.Unmarshal(body, &apiErr); err != nil {
		t.Fatalf("body %q is not the error envelope: %v", body, err)
	}
	if apiErr.Error.Message == "" {
		t.Fatalf("error envelope %q has an empty message", body)
	}
	return apiErr.Error.Code
}

// doRaw issues a request with no body and returns status, headers, body.
func doRaw(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// appendBody builds an NDJSON append of n rows continuing smallCSV's
// grid (24 samples at step 10) from sample index from.
func appendBody(from, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `{"time":%d,"values":{"A":1,"B":0,"C":%d}}`+"\n", (from+i)*10, i%2)
	}
	return sb.String()
}

// crashObs records what one run of the crash workload acknowledged.
type crashObs struct {
	dsID string
	// dsStates are the dataset snapshots the API reported (the upload
	// plus each acknowledged append), in order.
	dsStates []DatasetInfo
	// maybe is the hypothetical outcome of the first append that FAILED:
	// its segment or WAL record may have reached disk before the error,
	// so replay may legitimately surface it once — but never twice.
	maybe []DatasetInfo
	jobID string
	// jobDoc is the acknowledged finished-job result document.
	jobDoc []byte
}

// runCrashWorkload drives one durable server through upload → append →
// mine → compact → append on fsys, tolerating failures (the armed fault
// is sticky), then crashes it. Returns the acknowledged observations.
func runCrashWorkload(t *testing.T, dir string, fsys store.FS) crashObs {
	t.Helper()
	var obs crashObs
	srv, err := New(Options{Workers: 1, DataDir: dir, FS: fsys, SnapshotEvery: 1 << 20})
	if err != nil {
		return obs // fault hit recovery/startup; nothing was acknowledged
	}
	ts := httptest.NewServer(srv)
	defer func() {
		crash(srv)
		ts.Close()
		srv.Close()
	}()

	var info DatasetInfo
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?name=ds&threshold=0.5&shards=1",
		strings.NewReader(smallCSV()), &info)
	if code != http.StatusCreated {
		return obs
	}
	obs.dsID = info.ID
	obs.dsStates = append(obs.dsStates, info)

	tryAppend := func(from int) {
		last := obs.dsStates[len(obs.dsStates)-1]
		code, data := postAppend(t, ts.URL, obs.dsID, "", appendBody(from, 2))
		if code == http.StatusOK {
			var got DatasetInfo
			if err := json.Unmarshal(data, &got); err != nil {
				t.Fatalf("append response %q: %v", data, err)
			}
			obs.dsStates = append(obs.dsStates, got)
		} else if len(obs.maybe) == 0 {
			hypo := last
			hypo.Samples += 2
			hypo.Generation++
			obs.maybe = append(obs.maybe, hypo)
		}
	}
	tryAppend(24)

	body, _ := json.Marshal(MiningRequest{
		DatasetID: obs.dsID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
	})
	resp, data := doRaw(t, http.MethodPost, ts.URL+"/v1/jobs", string(body))
	if resp.StatusCode == http.StatusAccepted {
		var job JobInfo
		if err := json.Unmarshal(data, &job); err != nil {
			t.Fatalf("submit response %q: %v", data, err)
		}
		done := waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
		if done.State == JobDone {
			if code, doc := getRaw(t, ts.URL+"/v1/jobs/"+job.ID+"/result"); code == 200 {
				obs.jobID = job.ID
				obs.jobDoc = doc
			}
		}
	}

	if srv.persist != nil {
		srv.persist.compact()
	}
	tryAppend(26)
	return obs
}

// checkRecovered reopens dir on a clean filesystem and asserts the
// restart invariants against the observations.
func checkRecovered(t *testing.T, name, dir string, obs crashObs) {
	t.Helper()
	srv, err := New(Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("%s: reopen: %v", name, err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Close()

	// Every surviving segment file is referenced by a restored dataset:
	// orphans from half-finished seals were collected at startup.
	live := srv.reg.liveSegments()
	entries, err := os.ReadDir(srv.segDir)
	if err != nil {
		t.Fatalf("%s: segment dir: %v", name, err)
	}
	for _, e := range entries {
		if !live[e.Name()] {
			t.Fatalf("%s: orphan segment %q survived restart", name, e.Name())
		}
	}

	var got DatasetInfo
	dsCode := http.StatusNotFound
	if obs.dsID != "" {
		dsCode = doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+obs.dsID, nil, &got)
	}
	if dsCode == http.StatusOK {
		// The recovered dataset must be exactly one reported (or the
		// single in-flight) state: prefix replay, no double-apply.
		ok := false
		for _, want := range append(append([]DatasetInfo{}, obs.dsStates...), obs.maybe...) {
			if got.Samples == want.Samples && got.Generation == want.Generation {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: recovered dataset (samples=%d gen=%d) matches no acknowledged state %+v / in-flight %+v",
				name, got.Samples, got.Generation, obs.dsStates, obs.maybe)
		}
		// And it must actually mine.
		mineDone(t, ts.URL, MiningRequest{
			DatasetID: obs.dsID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
		})
	} else if len(obs.dsStates) > 0 {
		// Absence is legal — the ack may have raced the fault to the WAL —
		// but then the degraded flag must have told the client so during
		// the crashed run; here we only require that nothing ELSE leaked.
		if len(live) != 0 {
			t.Fatalf("%s: dataset lost but %d segments survive as live", name, len(live))
		}
	}

	// A recovered finished job must serve the byte-identical document; a
	// re-queued one must re-mine to it (mining is deterministic).
	if obs.jobID != "" {
		resp, data := doRaw(t, http.MethodGet, ts.URL+"/v1/jobs/"+obs.jobID, "")
		if resp.StatusCode == http.StatusOK && dsCode == http.StatusOK {
			var ji JobInfo
			if err := json.Unmarshal(data, &ji); err != nil {
				t.Fatalf("%s: job doc %q: %v", name, data, err)
			}
			if !ji.State.Terminal() {
				ji = waitState(t, ts.URL, obs.jobID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
			}
			if ji.State == JobDone {
				if code, doc := getRaw(t, ts.URL+"/v1/jobs/"+obs.jobID+"/result"); code == 200 && !bytes.Equal(doc, obs.jobDoc) {
					t.Fatalf("%s: finished-job document diverged after restart:\n got %s\nwant %s", name, doc, obs.jobDoc)
				}
			}
		}
	}

	// Stability: crash the recovered server too; a second restart lands
	// on the identical dataset state (replay is idempotent).
	crash(srv)
	ts.Close()
	srv.Close()
	srv2, err := New(Options{Workers: 0, DataDir: dir})
	if err != nil {
		t.Fatalf("%s: second reopen: %v", name, err)
	}
	defer srv2.Close()
	if dsCode == http.StatusOK {
		d, ok := srv2.reg.get(obs.dsID)
		if !ok {
			t.Fatalf("%s: dataset vanished on second reopen", name)
		}
		v := d.view()
		if v.src.Len() != got.Samples || v.gen != got.Generation {
			t.Fatalf("%s: second reopen (samples=%d gen=%d), first (samples=%d gen=%d)",
				name, v.src.Len(), v.gen, got.Samples, got.Generation)
		}
	}
}

// TestCrashConsistencyFailNthSweep is the headline robustness property:
// for EVERY mutating filesystem operation of a full workload (upload,
// append, mine, compact, append), fail that operation and all later
// ones, crash the server, and restart from the surviving files. The
// restart must succeed and land exactly on a state the API reported.
func TestCrashConsistencyFailNthSweep(t *testing.T) {
	count := store.NewErrFS(store.OS())
	runCrashWorkload(t, t.TempDir(), count)
	total := count.Ops()
	if total < 15 {
		t.Fatalf("workload performed only %d mutating ops; the sweep would be vacuous", total)
	}

	step := int64(1)
	if testing.Short() {
		step = 5
	}
	for i := int64(1); i <= total; i += step {
		name := fmt.Sprintf("failAt=%d", i)
		dir := t.TempDir()
		efs := store.NewErrFS(store.OS())
		efs.SetFailAt(i, syscall.ENOSPC)
		obs := runCrashWorkload(t, dir, efs)
		checkRecovered(t, name, dir, obs)
	}
}

// TestDegradedModeEndToEnd: a fatal storage fault flips the server into
// sticky read-only degradation — writes 503 with code "degraded" and a
// Retry-After hint, reads still 200, /readyz 503 with the reason,
// /healthz still 200, and /metrics exposes the fault counters.
func TestDegradedModeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	efs := store.NewErrFS(store.OS())
	srv, ts := testServer(t, Options{Workers: 1, DataDir: dir, FS: efs})
	t.Cleanup(func() { efs.SetFailAt(0, nil) }) // let shutdown run clean

	ds := uploadCSV(t, ts.URL, "name=ds&threshold=0.5&shards=1", smallCSV())
	job := mineDone(t, ts.URL, MiningRequest{
		DatasetID: ds.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
	})
	if resp, _ := doRaw(t, http.MethodGet, ts.URL+"/v1/readyz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before fault: status %d", resp.StatusCode)
	}
	if !srv.Ready() {
		t.Fatal("Ready() = false before fault")
	}

	// Yank the disk: the next upload's seal fails fatally.
	efs.SetFailAt(efs.Ops()+1, syscall.ENOSPC)
	resp, body := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets?name=more&threshold=0.5", smallCSV())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload during fault: status %d (body %s)", resp.StatusCode, body)
	}
	if code := decodeAPIError(t, body); code != codeDegraded {
		t.Fatalf("upload during fault: code %q, want %q", code, codeDegraded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded write response has no Retry-After")
	}

	// Sticky: every write path now refuses without touching storage.
	writes := []struct{ method, url, body string }{
		{http.MethodPost, ts.URL + "/v1/datasets?name=x", smallCSV()},
		{http.MethodPost, ts.URL + "/v1/datasets/" + ds.ID + "/append", appendBody(24, 1)},
		{http.MethodDelete, ts.URL + "/v1/datasets/" + ds.ID, ""},
		{http.MethodPost, ts.URL + "/v1/jobs", `{"dataset_id":"` + ds.ID + `","min_support":0.2,"num_windows":2}`},
	}
	for _, w := range writes {
		resp, body := doRaw(t, w.method, w.url, w.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s while degraded: status %d (body %s)", w.method, w.url, resp.StatusCode, body)
		}
		if code := decodeAPIError(t, body); code != codeDegraded {
			t.Fatalf("%s %s while degraded: code %q, want %q", w.method, w.url, code, codeDegraded)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s while degraded: no Retry-After", w.method, w.url)
		}
	}

	// Reads keep answering from memory.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+ds.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("dataset read while degraded: status %d", code)
	}
	if code, _ := getRaw(t, ts.URL+"/v1/jobs/"+job.ID+"/result"); code != http.StatusOK {
		t.Fatalf("result read while degraded: status %d", code)
	}
	if resp, _ := doRaw(t, http.MethodGet, ts.URL+"/v1/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while degraded: status %d", resp.StatusCode)
	}

	// Readiness flips, with the reason in the message.
	resp, body = doRaw(t, http.MethodGet, ts.URL+"/v1/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while degraded: status %d", resp.StatusCode)
	}
	if code := decodeAPIError(t, body); code != codeDegraded {
		t.Fatalf("readyz while degraded: code %q, want %q", code, codeDegraded)
	}
	if !strings.Contains(string(body), "store fault") {
		t.Fatalf("readyz message does not name the fault: %s", body)
	}
	if srv.Ready() {
		t.Fatal("Ready() = true while degraded")
	}

	// Metrics expose the state machine-readably.
	var m MetricsJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m); code != http.StatusOK {
		t.Fatalf("metrics while degraded: status %d", code)
	}
	if !m.Health.Degraded || m.Health.Reason == "" {
		t.Fatalf("metrics health = %+v, want degraded with a reason", m.Health)
	}
	if m.Health.StoreFaultsTotal < 1 {
		t.Fatalf("store_faults_total = %d, want >= 1", m.Health.StoreFaultsTotal)
	}
}

// TestWALAppendTransientRetry: a transient WAL error (EINTR) is retried
// with backoff and never degrades the server.
func TestWALAppendTransientRetry(t *testing.T) {
	dir := t.TempDir()
	efs := store.NewErrFS(store.OS())
	srv, ts := testServer(t, Options{Workers: 1, DataDir: dir, FS: efs})

	ds := uploadCSV(t, ts.URL, "name=ds&threshold=0.5&shards=1", smallCSV())

	// Exactly one injected failure: the DELETE's WAL append hits EINTR
	// once, the rollback and the retry then succeed.
	efs.SetFailCount(1)
	efs.SetFailAt(efs.Ops()+1, syscall.EINTR)
	resp, body := doRaw(t, http.MethodDelete, ts.URL+"/v1/datasets/"+ds.ID, "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete with transient fault: status %d (body %s)", resp.StatusCode, body)
	}
	if got := srv.persist.retries.Load(); got < 1 {
		t.Fatalf("retries = %d, want >= 1", got)
	}
	if deg, reason := srv.degradedState(); deg {
		t.Fatalf("server degraded after a recovered transient fault: %s", reason)
	}
	if resp, _ := doRaw(t, http.MethodGet, ts.URL+"/v1/readyz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after transient fault: status %d", resp.StatusCode)
	}
	// The delete was durable despite the hiccup.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+ds.ID, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted dataset still answers: status %d", code)
	}
}

// TestJobPanicIsolation: a panic inside one mining job fails that job
// with the panic reason; the worker, the server, and later jobs are
// unharmed.
func TestJobPanicIsolation(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	ds := uploadCSV(t, ts.URL, "name=ds&threshold=0.5&shards=1", smallCSV())
	bomb := uploadCSV(t, ts.URL, "name=bomb&threshold=0.5&shards=1", smallCSV())

	testMineHook = func(j *job) {
		if j.rec.Request.DatasetID == bomb.ID {
			panic("mining bomb")
		}
	}
	defer func() { testMineHook = nil }()

	job := submitJob(t, ts.URL, MiningRequest{
		DatasetID: bomb.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
	})
	failed := waitState(t, ts.URL, job.ID, 10*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	if failed.State != JobFailed {
		t.Fatalf("panicked job finished as %s", failed.State)
	}
	if !strings.Contains(failed.Error, "panic: mining bomb") {
		t.Fatalf("panicked job error = %q, want the panic reason", failed.Error)
	}

	// The same worker keeps mining other jobs.
	mineDone(t, ts.URL, MiningRequest{
		DatasetID: ds.ID, MinSupport: 0.2, NumWindows: 2, MaxPatternSize: 2,
	})
}

// TestHandlerPanicRecovery: a panic inside a request handler becomes a
// 500 envelope on that request only; the server keeps serving.
func TestHandlerPanicRecovery(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})

	testRouteHook = func(r *http.Request) {
		if r.Header.Get("X-Test-Panic") != "" {
			panic("handler bomb")
		}
	}
	defer func() { testRouteHook = nil }()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Test-Panic", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d (body %s)", resp.StatusCode, buf.Bytes())
	}
	if code := decodeAPIError(t, buf.Bytes()); code != codeInternal {
		t.Fatalf("panicking request: code %q, want %q", code, codeInternal)
	}

	// The next request is unaffected.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, nil); code != http.StatusOK {
		t.Fatalf("request after panic: status %d", code)
	}
}

// TestReadyzBasics: readiness answers ready on a healthy server, on both
// the versioned and unversioned path, and only for GET.
func TestReadyzBasics(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, url := range []string{ts.URL + "/v1/readyz", ts.URL + "/v1/readyz"} {
		resp, body := doRaw(t, http.MethodGet, url, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		var doc struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.Status != "ready" {
			t.Fatalf("GET %s: body %s", url, body)
		}
	}
	if resp, _ := doRaw(t, http.MethodPost, ts.URL+"/v1/readyz", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /readyz: status %d", resp.StatusCode)
	}
}

// TestStreamDegradedFrame: an open event stream keeps serving when the
// server flips into degraded mode, and broadcasts a "degraded" frame so
// stream-only clients learn about it without polling.
func TestStreamDegradedFrame(t *testing.T) {
	dir := t.TempDir()
	efs := store.NewErrFS(store.OS())
	srv, ts := testServer(t, Options{Workers: 1, DataDir: dir, FS: efs})
	t.Cleanup(func() { efs.SetFailAt(0, nil) })

	ds := uploadCSV(t, ts.URL, "name=slow&threshold=0.5&shards=1", slowCSV(3, 400))
	body, _ := json.Marshal(MiningRequest{
		DatasetID: ds.ID, MinSupport: 0.05, NumWindows: 8, MaxPatternSize: 3,
	})
	var job JobInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	type streamResult struct {
		events []sseEvent
	}
	got := make(chan streamResult, 1)
	go func() {
		events := readSSE(t, ctx, ts.URL+"/v1/jobs/"+job.ID+"/events", "", func(e sseEvent) bool {
			return e.typ == "degraded"
		})
		got <- streamResult{events}
	}()

	// Give the stream a beat to attach, then yank the disk via a failing
	// upload: the server degrades mid-stream.
	time.Sleep(100 * time.Millisecond)
	efs.SetFailAt(efs.Ops()+1, syscall.ENOSPC)
	resp, _ := doRaw(t, http.MethodPost, ts.URL+"/v1/datasets?name=boom&threshold=0.5", smallCSV())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fault upload: status %d", resp.StatusCode)
	}

	var res streamResult
	select {
	case res = <-got:
	case <-ctx.Done():
		t.Fatal("stream never delivered the degraded frame")
	}
	last := res.events[len(res.events)-1]
	if last.typ != "degraded" {
		t.Fatalf("stream ended on %q, want the degraded frame", last.typ)
	}
	var d degradedEventData
	if err := json.Unmarshal(last.data, &d); err != nil || !d.Degraded || d.Reason == "" {
		t.Fatalf("degraded frame payload %s (err %v)", last.data, err)
	}

	// Degradation is read-only mode, not a stopped server: a fresh
	// stream still follows the running job to its natural end.
	efs.SetFailAt(0, nil) // the disk "recovers"; mode stays sticky
	if deg, _ := srv.degradedState(); !deg {
		t.Fatal("degraded mode was not sticky")
	}
	final := readSSE(t, ctx, ts.URL+"/v1/jobs/"+job.ID+"/events", "", nil)
	var lastState jobEventData
	for _, e := range final {
		if e.typ == "state" {
			lastState = e.jobData(t)
		}
	}
	if lastState.State != JobDone {
		t.Fatalf("job under degraded server finished as %q", lastState.State)
	}
}
