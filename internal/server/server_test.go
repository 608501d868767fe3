package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"ftpm"
)

// smallCSV is a pattern-rich numeric dataset: three appliances with
// staggered On runs over two days' worth of samples.
func smallCSV() string {
	var sb strings.Builder
	sb.WriteString("time,A,B,C\n")
	on := func(i, lo, hi int) int {
		if i >= lo && i < hi {
			return 1
		}
		return 0
	}
	for i := 0; i < 24; i++ {
		a := on(i%12, 1, 5)
		b := on(i%12, 2, 7)
		c := on(i%12, 6, 9)
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", i*10, a, b, c)
	}
	return sb.String()
}

// slowCSV is sized so that mining it takes seconds: alternating symbols
// give quadratically many instance pairs per sequence at level 2.
func slowCSV(series, samples int) string {
	var sb strings.Builder
	sb.WriteString("time")
	for s := 0; s < series; s++ {
		fmt.Fprintf(&sb, ",S%d", s)
	}
	sb.WriteByte('\n')
	for i := 0; i < samples; i++ {
		fmt.Fprintf(&sb, "%d", i)
		for s := 0; s < series; s++ {
			sb.WriteByte(',')
			if (i+s)%2 == 0 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// testServer wires a Server into an httptest listener.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON issues a request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body io.Reader, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// uploadCSV posts a CSV body and returns the dataset info.
func uploadCSV(t *testing.T, base, query, csv string) DatasetInfo {
	t.Helper()
	var info DatasetInfo
	code := doJSON(t, http.MethodPost, base+"/v1/datasets?"+query, strings.NewReader(csv), &info)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	return info
}

// waitState polls the job until its state satisfies ok, or fails at the
// deadline.
func waitState(t *testing.T, base, id string, deadline time.Duration, ok func(JobInfo) bool) JobInfo {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		var info JobInfo
		if code := doJSON(t, http.MethodGet, base+"/v1/jobs/"+id, nil, &info); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if ok(info) {
			return info
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s did not reach the expected state in %v (now %s)", id, deadline, info.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEndToEndMineAndPage(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})

	// Ingest: numeric CSV, symbolized once at upload.
	info := uploadCSV(t, ts.URL, "name=energy&format=numeric&threshold=0.5", smallCSV())
	if len(info.Series) != 3 || info.Samples != 24 {
		t.Fatalf("dataset info = %+v", info)
	}

	var list datasetsPage
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &list); code != 200 || len(list.Datasets) != 1 {
		t.Fatalf("dataset list = %v (%d)", list, code)
	}

	// Submit a mining job and poll it to completion.
	body, _ := json.Marshal(MiningRequest{
		DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 3,
	})
	var job JobInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("job finished as %s (%s)", done.State, done.Error)
	}
	if done.Summary == nil || done.Summary.Patterns == 0 {
		t.Fatalf("done job missing summary: %+v", done)
	}
	if done.Progress.Level < 2 || done.Progress.Patterns != done.Summary.Patterns {
		t.Fatalf("progress not sourced from level stats: %+v vs %+v", done.Progress, done.Summary)
	}

	// Page through the patterns; pages must tile the full set exactly.
	total := done.Summary.Patterns
	var collected []ftpm.PatternJSON
	offset := 0
	for {
		var page patternsPage
		url := fmt.Sprintf("%s/v1/jobs/%s/patterns?offset=%d&limit=2", ts.URL, job.ID, offset)
		if code := doJSON(t, http.MethodGet, url, nil, &page); code != 200 {
			t.Fatalf("patterns page: status %d", code)
		}
		if page.Total != total {
			t.Fatalf("page total = %d, want %d", page.Total, total)
		}
		if len(page.Patterns) > 2 {
			t.Fatalf("page exceeds limit: %d", len(page.Patterns))
		}
		collected = append(collected, page.Patterns...)
		if page.NextOffset == nil {
			break
		}
		if *page.NextOffset != offset+len(page.Patterns) {
			t.Fatalf("next_offset = %d, want %d", *page.NextOffset, offset+len(page.Patterns))
		}
		offset = *page.NextOffset
	}
	if len(collected) != total {
		t.Fatalf("paging collected %d patterns, want %d", len(collected), total)
	}

	// NDJSON streaming returns the same patterns, one document per line.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/patterns?limit=10000&format=ndjson", ts.URL, job.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson content type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var p ftpm.PatternJSON
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("ndjson line %d: %v", lines, err)
		}
		if p.K < 2 || len(p.Events) != p.K {
			t.Fatalf("ndjson line %d malformed: %+v", lines, p)
		}
		lines++
	}
	if lines != total {
		t.Fatalf("ndjson lines = %d, want %d", lines, total)
	}

	// Full result document matches the CLI's -json shape.
	var doc ftpm.ResultJSON
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/result", nil, &doc); code != 200 {
		t.Fatalf("result: status %d", code)
	}
	if doc.Sequences == 0 || len(doc.Patterns) != total {
		t.Fatalf("result doc = %d sequences, %d patterns", doc.Sequences, len(doc.Patterns))
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=slow&threshold=0.5", slowCSV(4, 12000))

	body, _ := json.Marshal(MiningRequest{
		DatasetID: info.ID, MinSupport: 0.1, MinConfidence: 0,
		NumWindows: 6, MaxPatternSize: 2, Workers: 1,
	})
	var job JobInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	// Patterns are unavailable while the job is not done.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/patterns", nil, nil); code != http.StatusConflict {
		t.Fatalf("patterns of unfinished job: status %d, want 409", code)
	}

	// Wait until the miner is actually running, then cancel mid-mine.
	waitState(t, ts.URL, job.ID, 10*time.Second, func(j JobInfo) bool { return j.State == JobRunning })
	var onCancel JobInfo
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil, &onCancel); code != http.StatusAccepted {
		t.Fatalf("cancel: status %d", code)
	}

	// The miner must observe ctx.Err() and stop long before the dataset
	// could have been mined to completion.
	start := time.Now()
	final := waitState(t, ts.URL, job.ID, 20*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	if final.State != JobCancelled {
		t.Fatalf("state after cancel = %s (%s)", final.State, final.Error)
	}
	if !strings.Contains(final.Error, "context canceled") {
		t.Fatalf("cancelled job must carry the miner's ctx error, got %q", final.Error)
	}
	if final.FinishedAt == nil {
		t.Fatal("cancelled job missing finished_at")
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancellation took %v", waited)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=slow&threshold=0.5", slowCSV(4, 12000))

	submit := func() JobInfo {
		body, _ := json.Marshal(MiningRequest{
			DatasetID: info.ID, MinSupport: 0.1, MinConfidence: 0,
			NumWindows: 6, MaxPatternSize: 2, Workers: 1,
		})
		var job JobInfo
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		return job
	}
	blocker := submit()
	queued := submit()

	// The single worker is occupied, so the second job is still queued and
	// cancels without ever starting.
	var onCancel JobInfo
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil, &onCancel); code != http.StatusAccepted {
		t.Fatalf("cancel queued: status %d", code)
	}
	if onCancel.State != JobCancelled {
		t.Fatalf("queued job state after cancel = %s", onCancel.State)
	}
	if onCancel.StartedAt != nil {
		t.Fatal("cancelled queued job must never have started")
	}

	doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.ID, nil, nil)
	waitState(t, ts.URL, blocker.ID, 20*time.Second, func(j JobInfo) bool { return j.State.Terminal() })

	var jobs jobsPage
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &jobs); code != 200 || len(jobs.Jobs) != 2 {
		t.Fatalf("job list = %v (%d)", jobs, code)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=ok&threshold=0.5", smallCSV())

	post := func(req MiningRequest) int {
		body, _ := json.Marshal(req)
		return doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), nil)
	}
	cases := []struct {
		name string
		req  MiningRequest
		want int
	}{
		{"unknown dataset", MiningRequest{DatasetID: "ds-404", MinSupport: 0.5, NumWindows: 2}, 404},
		{"bad support", MiningRequest{DatasetID: info.ID, MinSupport: 1.5, NumWindows: 2}, 400},
		{"no geometry", MiningRequest{DatasetID: info.ID, MinSupport: 0.5}, 400},
		{"both geometries", MiningRequest{DatasetID: info.ID, MinSupport: 0.5, NumWindows: 2, WindowLength: 60}, 400},
		{"bad approx", MiningRequest{DatasetID: info.ID, MinSupport: 0.5, NumWindows: 2, Approx: &ApproxRequest{}}, 400},
		// Regression: a negative value reads as "unset" to the
		// exactly-one check, so {"mu": -1, "density": 0.5} used to pass
		// validation and only fail at mine time as a failed job.
		{"negative mu with density", MiningRequest{DatasetID: info.ID, MinSupport: 0.5, NumWindows: 2, Approx: &ApproxRequest{Mu: -1, Density: 0.5}}, 400},
		{"negative density with mu", MiningRequest{DatasetID: info.ID, MinSupport: 0.5, NumWindows: 2, Approx: &ApproxRequest{Mu: 0.5, Density: -0.3}}, 400},
		{"both negative", MiningRequest{DatasetID: info.ID, MinSupport: 0.5, NumWindows: 2, Approx: &ApproxRequest{Mu: -1, Density: -1}}, 400},
		{"negative overlap", MiningRequest{DatasetID: info.ID, MinSupport: 0.5, NumWindows: 2, Overlap: -1}, 400},
		{"negative tmax", MiningRequest{DatasetID: info.ID, MinSupport: 0.5, NumWindows: 2, TMax: -5}, 400},
		{"negative workers", MiningRequest{DatasetID: info.ID, MinSupport: 0.5, NumWindows: 2, Workers: -1}, 400},
	}
	for _, c := range cases {
		if got := post(c.req); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}

	// Upload validation.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?format=wat", strings.NewReader("x"), nil); code != 400 {
		t.Errorf("unknown format: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets", strings.NewReader("not,a\nvalid csv"), nil); code != 400 {
		t.Errorf("bad csv: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope", nil, nil); code != 404 {
		t.Errorf("unknown job: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/nope", nil, nil); code != 404 {
		t.Errorf("unknown dataset: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/nope", nil, nil); code != 404 {
		t.Errorf("unknown route: status %d", code)
	}
}

// TestUploadNonFiniteThreshold is the regression test for NaN/Inf
// thresholds: strconv.ParseFloat accepts them, and symbolization then
// silently produces garbage (every NaN comparison is false), so the
// upload must be rejected up front.
func TestUploadNonFiniteThreshold(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, v := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "Infinity"} {
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?threshold="+v, strings.NewReader(smallCSV()), nil)
		if code != http.StatusBadRequest {
			t.Errorf("threshold=%s: status %d, want 400", v, code)
		}
	}
	var list datasetsPage
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &list); code != 200 || len(list.Datasets) != 0 {
		t.Fatalf("rejected uploads must register nothing: %v (%d)", list, code)
	}
	// Finite thresholds keep working.
	if info := uploadCSV(t, ts.URL, "threshold=0.5", smallCSV()); info.Samples != 24 {
		t.Fatalf("finite threshold upload = %+v", info)
	}

	// A non-finite DefaultThreshold must not bypass the guard: the check
	// applies to the effective threshold, not just the query parameter.
	nan := math.NaN()
	_, ts2 := testServer(t, Options{Workers: 1, DefaultThreshold: &nan})
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/datasets", strings.NewReader(smallCSV()), nil); code != http.StatusBadRequest {
		t.Errorf("upload under NaN default threshold: status %d, want 400", code)
	}
}

// TestCancelTerminalJobConflict is the regression test for DELETE on a
// finished job: 202 would imply a cancellation was requested, so a
// terminal job must answer 409 with its state and stay untouched.
func TestCancelTerminalJobConflict(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=ok&threshold=0.5", smallCSV())
	body, _ := json.Marshal(MiningRequest{
		DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 2,
	})
	var job JobInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	if done.State != JobDone {
		t.Fatalf("job finished as %s (%s)", done.State, done.Error)
	}

	var apiErr apiError
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil, &apiErr); code != http.StatusConflict {
		t.Fatalf("DELETE on done job: status %d, want 409", code)
	}
	if apiErr.Error.Code != codeConflict {
		t.Fatalf("conflict error code = %q, want %q", apiErr.Error.Code, codeConflict)
	}
	if !strings.Contains(apiErr.Error.Message, string(JobDone)) {
		t.Fatalf("conflict error %q must name the terminal state", apiErr.Error.Message)
	}
	// The job is untouched: still done, result still served.
	var after JobInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, nil, &after); code != 200 || after.State != JobDone {
		t.Fatalf("job after rejected cancel = %s (%d)", after.State, code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/result", nil, nil); code != 200 {
		t.Fatalf("result after rejected cancel: status %d", code)
	}

	// Cancelled jobs conflict the same way on a second DELETE.
	m := newJobManager(context.Background(), 0, 4, nil, nil, qosOptions{}, nil)
	defer m.close()
	ds := &Dataset{id: "d", shards: 1, cur: &dsGen{prep: map[string]*ftpm.Prepared{}}}
	j, err := m.submit(ds, MiningRequest{DatasetID: "d", MinSupport: 0.5, NumWindows: 2}, DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if _, prior, ok := m.cancelJob(j.rec.ID); !ok || prior != JobQueued {
		t.Fatalf("first cancel: prior = %s, ok = %t", prior, ok)
	}
	if _, prior, ok := m.cancelJob(j.rec.ID); !ok || !prior.Terminal() {
		t.Fatalf("second cancel must observe the terminal state, got %s", prior)
	}
}

// TestQueueDepthExcludesCancelled is the regression test for the
// queue_depth gauge: a job cancelled while queued leaves its tenant's
// queue immediately and must not be counted as backlog.
func TestQueueDepthExcludesCancelled(t *testing.T) {
	m := newJobManager(context.Background(), 0, 8, nil, nil, qosOptions{}, nil) // no workers: nothing is ever popped
	defer m.close()
	ds := &Dataset{id: "d", shards: 1, cur: &dsGen{prep: map[string]*ftpm.Prepared{}}}
	req := MiningRequest{DatasetID: "d", MinSupport: 0.5, NumWindows: 2}
	jobs := make([]*job, 3)
	for i := range jobs {
		j, err := m.submit(ds, req, DefaultTenant)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	if _, _, ok := m.cancelJob(jobs[1].rec.ID); !ok {
		t.Fatal("cancel failed")
	}
	if got := m.queueDepth(); got != 2 {
		t.Fatalf("queue_depth = %d, want 2", got)
	}
	if info := m.info(jobs[0]); info.QueueDepth != 2 {
		t.Fatalf("job info queue_depth = %d, want 2", info.QueueDepth)
	}
	if doc := m.metrics(); doc.QueueDepth != 2 {
		t.Fatalf("metrics queue_depth = %d, want 2", doc.QueueDepth)
	}
	if _, _, ok := m.cancelJob(jobs[0].rec.ID); !ok {
		t.Fatal("cancel failed")
	}
	if _, _, ok := m.cancelJob(jobs[2].rec.ID); !ok {
		t.Fatal("cancel failed")
	}
	if got := m.queueDepth(); got != 0 {
		t.Fatalf("queue_depth after cancelling all = %d, want 0", got)
	}
}

func TestUploadTooLarge(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, MaxUploadBytes: 64})
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?threshold=0.5", strings.NewReader(smallCSV()), nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413", code)
	}
}

func TestPreparedCacheReuse(t *testing.T) {
	srv, _ := testServer(t, Options{Workers: 1})
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i % 2)
	}
	series, err := ftpm.NewTimeSeries("A", 0, 1, vals)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := ftpm.Symbolize([]*ftpm.TimeSeries{series}, func(string) ftpm.Symbolizer { return ftpm.OnOff(0.5) })
	if err != nil {
		t.Fatal(err)
	}
	ds, err := srv.addDataset("a", sdb, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.view().fingerprint == "" {
		t.Fatal("dataset must carry a content fingerprint")
	}

	opt := ftpm.SplitOptions{NumWindows: 2}
	p1, err := ds.prepared(ds.view(), opt)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ds.prepared(ds.view(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same geometry must reuse the cached Prepared handle")
	}
	if p1.Shards() != 2 {
		t.Fatalf("prepared handle carries %d shards, want 2", p1.Shards())
	}
	p3, err := ds.prepared(ds.view(), ftpm.SplitOptions{NumWindows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("different geometry must not share a cache entry")
	}

	// Mining through the handle builds the artifacts once and reuses
	// them afterwards.
	mopt := ftpm.Options{MinSupport: 0.5, MinConfidence: 0, MaxPatternSize: 2}
	res1, err := p1.Mine(nil, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cache.DSEQ {
		t.Fatal("first mine must build the DSEQ conversion")
	}
	res2, err := p1.Mine(nil, mopt)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cache.DSEQ {
		t.Fatal("second mine must reuse the DSEQ conversion")
	}
	st := p1.Stats()
	if st.DSEQBuilds != 1 || st.DSEQHits != 1 {
		t.Fatalf("prepared stats = %+v, want 1 build + 1 hit", st)
	}

	// The cache is bounded: client-supplied geometries must not grow it
	// without limit.
	for n := 1; n <= 2*maxPreparedCache; n++ {
		if _, err := ds.prepared(ds.view(), ftpm.SplitOptions{NumWindows: n}); err != nil {
			t.Fatal(err)
		}
	}
	if g := ds.view(); len(g.prep) > maxPreparedCache || len(g.keys) > maxPreparedCache {
		t.Fatalf("cache grew to %d entries, cap is %d", len(g.prep), maxPreparedCache)
	}
}

func TestQueueFullRejection(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, QueueDepth: 1})
	info := uploadCSV(t, ts.URL, "name=slow&threshold=0.5", slowCSV(4, 12000))

	submit := func() (JobInfo, int) {
		body, _ := json.Marshal(MiningRequest{
			DatasetID: info.ID, MinSupport: 0.1, MinConfidence: 0,
			NumWindows: 6, MaxPatternSize: 2, Workers: 1,
		})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var job JobInfo
		if resp.StatusCode == http.StatusAccepted {
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				t.Fatal(err)
			}
		}
		return job, resp.StatusCode
	}

	// Fill the single worker and the depth-1 queue, then overflow.
	var accepted []JobInfo
	rejected := 0
	for i := 0; i < 6; i++ {
		job, code := submit()
		switch code {
		case http.StatusAccepted:
			accepted = append(accepted, job)
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	if rejected == 0 {
		t.Fatal("overflowing the queue must reject with 503")
	}

	// Rejected submits must not corrupt the job listing.
	var jobs jobsPage
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &jobs); code != 200 {
		t.Fatalf("job list after rejects: status %d", code)
	}
	if len(jobs.Jobs) != len(accepted) {
		t.Fatalf("job list has %d entries, want %d accepted", len(jobs.Jobs), len(accepted))
	}
	for _, j := range accepted {
		doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil, nil)
	}
	for _, j := range accepted {
		waitState(t, ts.URL, j.ID, 20*time.Second, func(i JobInfo) bool { return i.State.Terminal() })
	}
}

func TestTerminalJobEviction(t *testing.T) {
	// No workers: submitted jobs stay queued until cancelled, giving
	// direct control over terminal states.
	m := newJobManager(context.Background(), 0, maxRetainedJobs+200, nil, nil, qosOptions{}, nil)
	defer m.close()
	ds := &Dataset{id: "d", shards: 1, cur: &dsGen{prep: map[string]*ftpm.Prepared{}}}
	req := MiningRequest{DatasetID: "d", MinSupport: 0.5, NumWindows: 2}
	total := maxRetainedJobs + 100
	for i := 0; i < total; i++ {
		j, err := m.submit(ds, req, DefaultTenant)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := m.cancelJob(j.rec.ID); !ok {
			t.Fatal("cancel failed")
		}
	}
	m.mu.Lock()
	nIDs, nByID := len(m.ids), len(m.byID)
	m.mu.Unlock()
	if nIDs > maxRetainedJobs || nByID > maxRetainedJobs {
		t.Fatalf("retained %d/%d jobs, cap is %d", nIDs, nByID, maxRetainedJobs)
	}
	if _, ok := m.get(fmt.Sprintf("job-%d", total)); !ok {
		t.Fatal("newest job must survive eviction")
	}
	if _, ok := m.get("job-1"); ok {
		t.Fatal("oldest terminal job must be evicted")
	}
}

func TestWorkersClamped(t *testing.T) {
	if (MiningRequest{DatasetID: "x", MinSupport: 0.5, NumWindows: 2, Workers: -1}).validate() == nil {
		t.Fatal("negative workers must be rejected")
	}
	opt := MiningRequest{Workers: 1 << 20}.options()
	if opt.Workers > runtime.GOMAXPROCS(0) {
		t.Fatalf("workers not clamped: %d", opt.Workers)
	}
}

// TestShardedDatasetMatchesUnsharded uploads the same CSV with shard
// widths 1 and 4 and mines both with identical parameters: the result
// documents must be equal, and the sharded dataset/job responses must
// carry the shard metrics.
func TestShardedDatasetMatchesUnsharded(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})

	plain := uploadCSV(t, ts.URL, "name=plain&threshold=0.5&shards=1", smallCSV())
	sharded := uploadCSV(t, ts.URL, "name=sharded&threshold=0.5&shards=4", smallCSV())
	if plain.Shards != 1 || sharded.Shards != 4 {
		t.Fatalf("dataset shard counts = %d, %d; want 1, 4", plain.Shards, sharded.Shards)
	}

	mine := func(dsID string) (JobInfo, ftpm.ResultJSON) {
		body, _ := json.Marshal(MiningRequest{
			DatasetID: dsID, MinSupport: 0.2, MinConfidence: 0,
			NumWindows: 6, MaxPatternSize: 3, Workers: 2,
		})
		var job JobInfo
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
			t.Fatalf("submit on %s: status %d", dsID, code)
		}
		done := waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
		if done.State != JobDone {
			t.Fatalf("job on %s finished as %s (%s)", dsID, done.State, done.Error)
		}
		var doc ftpm.ResultJSON
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/result", nil, &doc); code != 200 {
			t.Fatalf("result: status %d", code)
		}
		return done, doc
	}

	plainJob, plainDoc := mine(plain.ID)
	shardJob, shardDoc := mine(sharded.ID)

	a, _ := json.Marshal(plainDoc)
	b, _ := json.Marshal(shardDoc)
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded result differs from unsharded:\n%s\nvs\n%s", a, b)
	}

	if plainJob.Summary.Shards != 0 {
		t.Fatalf("unsharded job reports %d shards", plainJob.Summary.Shards)
	}
	if shardJob.Summary.Shards != 4 || len(shardJob.Summary.ShardSeqs) != 4 {
		t.Fatalf("sharded job summary = %+v, want 4 shards", shardJob.Summary)
	}
	total := 0
	for _, n := range shardJob.Summary.ShardSeqs {
		total += n
	}
	if total != shardJob.Summary.Sequences {
		t.Fatalf("shard sequence counts %v do not sum to %d", shardJob.Summary.ShardSeqs, shardJob.Summary.Sequences)
	}

	// After a conversion, the dataset view exposes the shard balance.
	var after DatasetInfo
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets/"+sharded.ID, nil, &after); code != 200 {
		t.Fatalf("dataset detail: status %d", code)
	}
	if len(after.ShardSeqs) != 4 {
		t.Fatalf("dataset shard_sequences = %v, want 4 entries", after.ShardSeqs)
	}
}

func TestUploadShardsValidation(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, q := range []string{"shards=0", "shards=-2", "shards=65", "shards=wat"} {
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/datasets?threshold=0.5&"+q, strings.NewReader(smallCSV()), nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
	}
}

// TestResultCacheAndMetrics is the cache-effectiveness e2e: over one
// registered dataset, a second A-HTPGM job with a different threshold
// must perform zero DSEQ conversions and zero pairwise-NMI computations
// (counter-verified via /metrics), an exact job must share the same
// cached conversion, and a repeat of an identical job must be served
// from the completed-job result cache without mining at all.
func TestResultCacheAndMetrics(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	info := uploadCSV(t, ts.URL, "name=energy&threshold=0.5&shards=2", smallCSV())

	mine := func(req MiningRequest) (JobInfo, ftpm.ResultJSON) {
		t.Helper()
		req.DatasetID = info.ID
		body, _ := json.Marshal(req)
		var job JobInfo
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body), &job); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		done := waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
		if done.State != JobDone {
			t.Fatalf("job finished as %s (%s)", done.State, done.Error)
		}
		var doc ftpm.ResultJSON
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+done.ID+"/result", nil, &doc); code != 200 {
			t.Fatalf("result: status %d", code)
		}
		return done, doc
	}
	metrics := func() MetricsJSON {
		t.Helper()
		var m MetricsJSON
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/metrics", nil, &m); code != 200 {
			t.Fatalf("metrics: status %d", code)
		}
		return m
	}

	approxReq := MiningRequest{
		MinSupport: 0.2, MinConfidence: 0, NumWindows: 2, MaxPatternSize: 2,
		Approx: &ApproxRequest{Density: 0.8},
	}

	// Job 1: cold — everything is built.
	first, firstDoc := mine(approxReq)
	if first.Summary.DSEQCache || first.Summary.NMICache || first.Summary.ResultCache {
		t.Fatalf("cold job reports cache reuse: %+v", first.Summary)
	}
	m := metrics()
	if m.Cache.DSEQ.Misses != 1 || m.Cache.NMI.Misses != 1 || m.Cache.Result.Misses != 1 ||
		m.Cache.DSEQ.Hits != 0 || m.Cache.NMI.Hits != 0 || m.Cache.Result.Hits != 0 {
		t.Fatalf("counters after cold job = %+v", m.Cache)
	}

	// Job 2: a second A-HTPGM job at a different threshold reuses the
	// dataset's DSEQ conversion and pairwise NMI table — zero rebuilds.
	second := approxReq
	second.MinSupport = 0.4
	secondInfo, _ := mine(second)
	if !secondInfo.Summary.DSEQCache || !secondInfo.Summary.NMICache || secondInfo.Summary.ResultCache {
		t.Fatalf("second approx job summary = %+v, want dseq+nmi cache hits", secondInfo.Summary)
	}
	m = metrics()
	if m.Cache.DSEQ.Misses != 1 || m.Cache.NMI.Misses != 1 {
		t.Fatalf("second approx job recomputed artifacts: %+v", m.Cache)
	}
	if m.Cache.DSEQ.Hits != 1 || m.Cache.NMI.Hits != 1 {
		t.Fatalf("second approx job did not hit the artifact caches: %+v", m.Cache)
	}

	// An exact job over the same geometry shares the same conversion and
	// never consults NMI.
	exactInfo, _ := mine(MiningRequest{MinSupport: 0.2, MinConfidence: 0, NumWindows: 2, MaxPatternSize: 2})
	if !exactInfo.Summary.DSEQCache || exactInfo.Summary.NMICache {
		t.Fatalf("exact job summary = %+v, want dseq hit only", exactInfo.Summary)
	}
	m = metrics()
	if m.Cache.DSEQ.Hits != 2 || m.Cache.NMI.Hits != 1 || m.Cache.NMI.Misses != 1 {
		t.Fatalf("counters after exact job = %+v", m.Cache)
	}

	// Job 4: identical to job 1 — a result-cache hit that mines nothing:
	// the artifact counters must not move at all.
	repeat, repeatDoc := mine(approxReq)
	if !repeat.Summary.ResultCache || !repeat.Summary.DSEQCache || !repeat.Summary.NMICache {
		t.Fatalf("repeat job summary = %+v, want a result-cache hit", repeat.Summary)
	}
	if repeat.Summary.Patterns != first.Summary.Patterns || repeat.Summary.Mu != first.Summary.Mu {
		t.Fatalf("repeat summary diverges: %+v vs %+v", repeat.Summary, first.Summary)
	}
	a, _ := json.Marshal(firstDoc)
	b, _ := json.Marshal(repeatDoc)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached result differs from the original:\n%s\nvs\n%s", a, b)
	}
	m = metrics()
	if m.Cache.Result.Hits != 1 || m.Cache.Result.Misses != 3 {
		t.Fatalf("result counters after repeat = %+v", m.Cache.Result)
	}
	if m.Cache.DSEQ != (CounterJSON{Hits: 2, Misses: 1}) || m.Cache.NMI != (CounterJSON{Hits: 1, Misses: 1}) {
		t.Fatalf("repeat job touched artifact counters: %+v", m.Cache)
	}

	// Workers differ only in parallelism — results are byte-identical —
	// so a repeat with another worker count still hits.
	workers := approxReq
	workers.Workers = 2
	workersInfo, _ := mine(workers)
	if !workersInfo.Summary.ResultCache {
		t.Fatalf("worker-count variation must share the result entry: %+v", workersInfo.Summary)
	}

	// The final metrics document carries queue depth, job states, and
	// per-job level timings for mined jobs (none for the cached repeats).
	m = metrics()
	if m.Cache.Result != (CounterJSON{Hits: 2, Misses: 3}) {
		t.Fatalf("final result counters = %+v", m.Cache.Result)
	}
	if m.QueueDepth != 0 {
		t.Fatalf("queue_depth = %d", m.QueueDepth)
	}
	if m.JobStates[string(JobDone)] != 5 {
		t.Fatalf("job_states = %v, want 5 done", m.JobStates)
	}
	if len(m.Jobs) != 5 {
		t.Fatalf("metrics lists %d jobs, want 5", len(m.Jobs))
	}
	byID := make(map[string]JobMetricsJSON)
	for _, jm := range m.Jobs {
		byID[jm.ID] = jm
	}
	if len(byID[first.ID].Levels) == 0 {
		t.Fatalf("mined job %s has no level timings: %+v", first.ID, byID[first.ID])
	}
	for _, lv := range byID[first.ID].Levels {
		if lv.Level < 1 || lv.DurationMillis < 0 {
			t.Fatalf("bad level timing: %+v", lv)
		}
	}
	if len(byID[repeat.ID].Levels) != 0 {
		t.Fatalf("result-cache hit %s must carry no level timings", repeat.ID)
	}

	// A different window geometry rebuilds the conversion but still
	// shares the dataset-level NMI analysis.
	geo := approxReq
	geo.NumWindows = 4
	geoInfo, _ := mine(geo)
	if geoInfo.Summary.DSEQCache || !geoInfo.Summary.NMICache || geoInfo.Summary.ResultCache {
		t.Fatalf("cross-geometry job summary = %+v, want nmi reuse only", geoInfo.Summary)
	}

	// The result-cache gauges account the retained documents: four mined
	// parameterizations are resident, with their serialized byte footprint.
	m = metrics()
	if m.ResultCacheEntries != 4 {
		t.Fatalf("result_cache_entries = %d, want 4", m.ResultCacheEntries)
	}
	if m.ResultCacheBytes <= 0 {
		t.Fatalf("result_cache_bytes = %d, want > 0", m.ResultCacheBytes)
	}
	if m.ResultCacheBytes < int64(len(a)) {
		t.Fatalf("result_cache_bytes = %d smaller than one retained document (%d)", m.ResultCacheBytes, len(a))
	}

	// Only GET is allowed.
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/metrics", nil, nil); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics: status %d, want 405", code)
	}
}

// TestResultCacheSizeAwareEviction pins the byte-budget LRU policy: the
// cache evicts least-recently-used entries once the cumulative document
// size exceeds the budget (even while the entry cap is far away), updates
// accounting on overwrite, and refuses documents larger than the whole
// budget rather than evicting everything else to hold one outlier.
func TestResultCacheSizeAwareEviction(t *testing.T) {
	entry := func(size int64) *resultEntry {
		return &resultEntry{doc: &ftpm.ResultJSON{}, size: size}
	}
	c := newResultCache(100, 1000)

	c.put("a", entry(400))
	c.put("b", entry(400))
	if n, b := c.stats(); n != 2 || b != 800 {
		t.Fatalf("stats = (%d, %d), want (2, 800)", n, b)
	}
	// Touch "a" so "b" is the LRU victim when the budget overflows.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a must be resident")
	}
	c.put("c", entry(400))
	if _, ok := c.get("b"); ok {
		t.Fatal("b must have been evicted by the byte budget")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently-used a must survive")
	}
	if n, b := c.stats(); n != 2 || b != 800 {
		t.Fatalf("stats after eviction = (%d, %d), want (2, 800)", n, b)
	}

	// Overwriting a key replaces its accounted size instead of leaking it.
	c.put("a", entry(100))
	if n, b := c.stats(); n != 2 || b != 500 {
		t.Fatalf("stats after overwrite = (%d, %d), want (2, 500)", n, b)
	}

	// An entry above the whole budget is not cached and evicts nothing.
	c.put("huge", entry(5000))
	if _, ok := c.get("huge"); ok {
		t.Fatal("oversized entry must not be cached")
	}
	if n, b := c.stats(); n != 2 || b != 500 {
		t.Fatalf("stats after oversized put = (%d, %d), want (2, 500)", n, b)
	}

	// The entry cap still applies independently of bytes.
	small := newResultCache(2, 1<<30)
	small.put("x", entry(1))
	small.put("y", entry(1))
	small.put("z", entry(1))
	if _, ok := small.get("x"); ok {
		t.Fatal("entry cap must evict the oldest")
	}
	if n, _ := small.stats(); n != 2 {
		t.Fatalf("entry-capped cache holds %d entries, want 2", n)
	}
}

func TestQueueDepthExposed(t *testing.T) {
	// No workers: everything submitted stays queued.
	m := newJobManager(context.Background(), 0, 8, nil, nil, qosOptions{}, nil)
	defer m.close()
	ds := &Dataset{id: "d", shards: 1, cur: &dsGen{prep: map[string]*ftpm.Prepared{}}}
	req := MiningRequest{DatasetID: "d", MinSupport: 0.5, NumWindows: 2}
	var last *job
	for i := 0; i < 3; i++ {
		j, err := m.submit(ds, req, DefaultTenant)
		if err != nil {
			t.Fatal(err)
		}
		last = j
	}
	if info := m.info(last); info.QueueDepth != 3 {
		t.Fatalf("queue_depth = %d, want 3", info.QueueDepth)
	}
	list, next := m.page(0, 10)
	if len(list) != 3 || list[0].QueueDepth != 3 || next != "" {
		t.Fatalf("page queue_depth = %+v (next %q)", list, next)
	}
}
