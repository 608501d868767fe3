package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// SSE end-to-end tests: job streams must deliver queued → running →
// progress → terminal in order, survive a forced reconnect via
// Last-Event-ID without losing or duplicating transitions, report ring
// gaps as "dropped", and end after the final event.

// sseEvent is one parsed SSE frame. id is 0 for unsequenced frames
// (synthetic snapshots and dropped notices carry no id line).
type sseEvent struct {
	id   uint64
	typ  string
	data json.RawMessage
}

// jobData decodes the frame payload as a job event.
func (e sseEvent) jobData(t *testing.T) jobEventData {
	t.Helper()
	var d jobEventData
	if err := json.Unmarshal(e.data, &d); err != nil {
		t.Fatalf("bad event payload %q: %v", e.data, err)
	}
	return d
}

// readSSE opens an event stream and parses frames until the server ends
// the stream, ctx is cancelled, or stop (when non-nil) returns true for a
// parsed frame. lastEventID, when non-empty, is sent as the Last-Event-ID
// resume header.
func readSSE(t *testing.T, ctx context.Context, url, lastEventID string, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type = %q", ct)
	}

	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ != "" || cur.data != nil {
				events = append(events, cur)
				if stop != nil && stop(cur) {
					return events
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		case strings.HasPrefix(line, "id: "):
			n, err := strconv.ParseUint(line[4:], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			cur.id = n
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = json.RawMessage(line[6:])
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return events
}

// submitTenantJob posts a mining request under a tenant header and
// returns the response status plus (on 202) the job.
func submitTenantJob(t *testing.T, base, tenant string, req MiningRequest) (JobInfo, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set(tenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job JobInfo
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return job, resp
}

// assertJobTransitions checks that the state transitions embedded in a
// job's event sequence are exactly queued → running → … → one terminal
// state, with progress events only between running and the terminal.
func assertJobTransitions(t *testing.T, events []sseEvent, wantTerminal JobState) {
	t.Helper()
	var states []JobState
	progressSeen := 0
	for _, e := range events {
		switch e.typ {
		case "state":
			states = append(states, e.jobData(t).State)
		case "progress":
			if len(states) == 0 || states[len(states)-1] != JobRunning {
				t.Fatalf("progress event before running state (states so far: %v)", states)
			}
			progressSeen++
		case "dropped":
			t.Fatalf("unexpected dropped event in a fully-buffered stream")
		default:
			t.Fatalf("unexpected event type %q", e.typ)
		}
	}
	if len(states) < 3 {
		t.Fatalf("states = %v, want at least queued, running, terminal", states)
	}
	if states[0] != JobQueued || states[1] != JobRunning || states[len(states)-1] != wantTerminal {
		t.Fatalf("states = %v, want queued → running → … → %s", states, wantTerminal)
	}
	for _, s := range states[2 : len(states)-1] {
		if s != JobRunning {
			t.Fatalf("unexpected intermediate state %s in %v", s, states)
		}
	}
	if progressSeen == 0 {
		t.Fatalf("stream carried no progress events")
	}
	// Sequenced ids must be strictly increasing.
	var last uint64
	for _, e := range events {
		if e.id == 0 {
			continue
		}
		if e.id <= last {
			t.Fatalf("event ids not strictly increasing: %d after %d", e.id, last)
		}
		last = e.id
	}
}

func TestJobEventStreamEndToEnd(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	info := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())

	job, resp := submitTenantJob(t, ts.URL, "", MiningRequest{
		DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 3,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// Whether the client connects before or after the job finishes, the
	// ring replay delivers the full queued → … → done sequence.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events := readSSE(t, ctx, ts.URL+"/v1/jobs/"+job.ID+"/events", "", nil)
	assertJobTransitions(t, events, JobDone)
	for _, e := range events {
		if e.typ == "state" || e.typ == "progress" {
			if d := e.jobData(t); d.JobID != job.ID || d.Tenant != DefaultTenant {
				t.Fatalf("event carries job %q tenant %q, want %q/%q", d.JobID, d.Tenant, job.ID, DefaultTenant)
			}
		}
	}
	// Progress events carry the completed level with its worker grant.
	for _, e := range events {
		if e.typ != "progress" {
			continue
		}
		lv := e.jobData(t).Level
		if lv == nil || lv.Level < 1 || lv.Workers < 0 {
			t.Fatalf("progress event missing level payload: %s", e.data)
		}
	}
}

// TestJobEventStreamReconnect forces a disconnect mid-mine and resumes
// with Last-Event-ID: the union of both connections must hold every
// transition exactly once, in order.
func TestJobEventStreamReconnect(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=slow&threshold=0.5", slowCSV(4, 4000))

	job, resp := submitTenantJob(t, ts.URL, "", MiningRequest{
		DatasetID: info.ID, MinSupport: 0.1, MinConfidence: 0,
		NumWindows: 6, MaxPatternSize: 2, Workers: 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// First connection: drop it as soon as the job is visibly running —
	// mid-mine, before the terminal event.
	ctx1, cancel1 := context.WithTimeout(context.Background(), 30*time.Second)
	first := readSSE(t, ctx1, ts.URL+"/v1/jobs/"+job.ID+"/events", "", func(e sseEvent) bool {
		return e.typ == "state" && e.jobData(t).State == JobRunning
	})
	cancel1()
	if n := len(first); n == 0 || first[n-1].jobData(t).State != JobRunning {
		t.Fatalf("first connection ended at %v, want the running transition", first)
	}
	lastID := first[len(first)-1].id
	if lastID == 0 {
		t.Fatal("running event carried no id")
	}

	// Second connection resumes after the last delivered id and runs to
	// the job's final event.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	second := readSSE(t, ctx2, ts.URL+"/v1/jobs/"+job.ID+"/events", strconv.FormatUint(lastID, 10), nil)

	combined := append(append([]sseEvent(nil), first...), second...)
	assertJobTransitions(t, combined, JobDone)
	seen := make(map[uint64]bool)
	for _, e := range combined {
		if e.id == 0 {
			continue
		}
		if seen[e.id] {
			t.Fatalf("event id %d delivered twice across reconnect", e.id)
		}
		seen[e.id] = true
	}

	// Resuming after the final event ends the stream immediately with
	// nothing to say.
	done := second[len(second)-1]
	ctx3, cancel3 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel3()
	third := readSSE(t, ctx3, ts.URL+"/v1/jobs/"+job.ID+"/events", strconv.FormatUint(done.id, 10), nil)
	if len(third) != 0 {
		t.Fatalf("resume past the final event delivered %v, want nothing", third)
	}
}

func TestJobEventStreamNDJSON(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	info := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())
	job, resp := submitTenantJob(t, ts.URL, "", MiningRequest{
		DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/events", nil)
	req.Header.Set("Accept", "application/x-ndjson")
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if ct := hresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("ndjson stream content type = %q", ct)
	}
	var lines []streamLine
	sc := bufio.NewScanner(hresp.Body)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) < 3 {
		t.Fatalf("ndjson stream = %d lines, want the full replay", len(lines))
	}
	var last jobEventData
	if err := json.Unmarshal(lines[len(lines)-1].Data, &last); err != nil {
		t.Fatal(err)
	}
	if lines[0].Event != "state" || lines[len(lines)-1].Event != "state" || last.State != JobDone {
		t.Fatalf("ndjson stream must start with queued and end with done, got %v … %v", lines[0], lines[len(lines)-1])
	}
}

func TestFirehoseStreamsAllJobs(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 2})
	info := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())

	// Attach the firehose first: receiving the response headers proves the
	// subscription is registered, because the handler subscribes before it
	// writes the status line. A fresh firehose connection is live-only.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("firehose: status %d", resp.StatusCode)
	}

	job, sresp := submitTenantJob(t, ts.URL, "acme", MiningRequest{
		DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
		NumWindows: 2, MaxPatternSize: 2,
	})
	if sresp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", sresp.StatusCode)
	}

	var states []JobState
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.typ == "state" {
				if d := cur.jobData(t); d.JobID == job.ID {
					if d.Tenant != "acme" {
						t.Fatalf("firehose event tenant = %q, want acme", d.Tenant)
					}
					states = append(states, d.State)
				}
			}
			cur = sseEvent{}
			if len(states) > 0 && states[len(states)-1].Terminal() {
				cancel() // done collecting; unblock the stream read
			}
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = json.RawMessage(line[6:])
		}
	}
	want := fmt.Sprint([]JobState{JobQueued, JobRunning, JobDone})
	if fmt.Sprint(states) != want {
		t.Fatalf("firehose states for %s = %v, want %s", job.ID, states, want)
	}
}

// TestStreamResumeGapReportsDropped pins the ring-eviction contract: a
// resume pointing before the oldest retained event gets an explicit
// "dropped" notice (and, for a terminal job, a synthetic state snapshot)
// instead of silently skipping history.
func TestStreamResumeGapReportsDropped(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1, EventRing: 2})
	info := uploadCSV(t, ts.URL, "name=energy&threshold=0.5", smallCSV())

	mineOnce := func() JobInfo {
		job, resp := submitTenantJob(t, ts.URL, "", MiningRequest{
			DatasetID: info.ID, MinSupport: 0.2, MinConfidence: 0,
			NumWindows: 2, MaxPatternSize: 2,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		return waitState(t, ts.URL, job.ID, 30*time.Second, func(j JobInfo) bool { return j.State.Terminal() })
	}
	first := mineOnce()
	mineOnce() // rotates the 2-slot ring past the first job's events

	// Resume on the first job from before the ring's oldest id: the gap
	// surfaces as dropped, and the terminal snapshot resynchronizes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := readSSE(t, ctx, ts.URL+"/v1/jobs/"+first.ID+"/events?last_event_id=1", "", nil)
	if len(events) != 2 || events[0].typ != "dropped" || events[1].typ != "state" {
		t.Fatalf("gap resume = %v, want dropped then a state snapshot", events)
	}
	if d := events[1].jobData(t); d.State != JobDone || d.JobID != first.ID {
		t.Fatalf("snapshot after gap = %+v, want done %s", d, first.ID)
	}
	if events[1].id != 0 {
		t.Fatal("synthetic snapshot must carry no event id")
	}

	// A fresh (non-resume) connect to the evicted terminal job gets just
	// the snapshot — history loss is only reported to resuming clients.
	events = readSSE(t, ctx, ts.URL+"/v1/jobs/"+first.ID+"/events", "", nil)
	if len(events) != 1 || events[0].typ != "state" || events[0].jobData(t).State != JobDone {
		t.Fatalf("fresh connect to evicted job = %v, want one state snapshot", events)
	}
}

func TestEventsRoutesV1Only(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, path := range []string{"/jobs/job-1/events", "/events"} {
		var apiErr apiError
		if code := doJSON(t, http.MethodGet, ts.URL+path, nil, &apiErr); code != http.StatusNotFound {
			t.Fatalf("legacy %s: status %d, want 404", path, code)
		}
		if apiErr.Error.Code != codeNotFound {
			t.Fatalf("legacy %s: code %q, want %q", path, apiErr.Error.Code, codeNotFound)
		}
	}
	var apiErr apiError
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope/events", nil, &apiErr); code != http.StatusNotFound {
		t.Fatalf("unknown job events: status %d, want 404", code)
	}
}

// TestUnversionedRoutesNotFound pins the API surface: every route lives
// under /v1, and an unversioned path is a 404 with the error envelope
// pointing there.
func TestUnversionedRoutesNotFound(t *testing.T) {
	_, ts := testServer(t, Options{Workers: 1})
	for _, path := range []string{"/datasets", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		assertEnvelope(t, resp, http.StatusNotFound, codeNotFound, "routes are served under /v1")
		resp.Body.Close()
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("/v1/healthz: status %d, want 200", code)
	}
}
