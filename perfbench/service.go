package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"time"

	"ftpm"
	"ftpm/internal/datagen"
	"ftpm/internal/server"
	"ftpm/internal/server/store"
)

// liveSpec sizes the service-live workload.
var liveSpec = struct {
	profile  datagen.Profile
	fraction float64
	// uploadShare is the share of samples the first upload carries; the
	// rest arrives as one append.
	uploadShare float64
	support     float64
	maxK        int
	density     float64
	pageLimit   int
	// nominal is the expected seconds per session with both clients
	// busy; the session count is a fixed function of --seconds.
	nominal float64
	// threshold is the On/Off upload threshold the CSV is rendered for.
	threshold float64
	// think is the mean of the seeded exponential pause a client takes
	// after each session. Without it the two closed-loop clients fall
	// into a different overlap pattern on every run, and the latencies
	// of a run depend on which one it found. A client's pauses are scaled
	// to sum to exactly their mean times their count, so the seed moves
	// the overlap but not the wall time the pauses add.
	think time.Duration
}{
	profile: datagen.NIST(), fraction: 0.10, uploadShare: 0.9, support: 0.6, maxK: 2,
	density: 0.4, pageLimit: 200, nominal: 0.27, threshold: 0.05, think: 150 * time.Millisecond,
}

var tenants = [procs]string{"a", "b"}

// sessionInput is one session's generated data: the full symbolic
// database and the numeric CSV bodies of its upload and its append.
type sessionInput struct {
	full   *ftpm.SymbolicDB
	cut    int // samples in the upload
	upload []byte
	append []byte
}

// sessionBodies are the files holding a session's upload and append
// bodies. They are written before the measured section and streamed from
// disk, so the clients neither render them nor hold them on the heap
// while it runs.
type sessionBodies struct {
	upload, append string
}

// writeBodies generates session s's data and writes its request bodies
// into dir.
func writeBodies(cfg config, s int, dir string) (sessionBodies, error) {
	in, err := genSession(cfg, s)
	if err != nil {
		return sessionBodies{}, err
	}
	b := sessionBodies{
		upload: filepath.Join(dir, fmt.Sprintf("%d-upload.csv", s)),
		append: filepath.Join(dir, fmt.Sprintf("%d-append.csv", s)),
	}
	if err := os.WriteFile(b.upload, in.upload, 0o644); err != nil {
		return b, err
	}
	return b, os.WriteFile(b.append, in.append, 0o644)
}

// genSession generates session s's data. Every session's data is
// distinct, so the server's content-keyed result cache cannot answer.
func genSession(cfg config, s int) (*sessionInput, error) {
	sp := liveSpec
	full, err := sp.profile.Generate(datagen.Options{
		SequenceFraction: sp.fraction * cfg.scale,
		SeedOffset:       cfg.seed*1009 + 500 + int64(s),
	})
	if err != nil {
		return nil, err
	}
	in := &sessionInput{full: full, cut: int(float64(full.Len()) * sp.uploadShare)}
	rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(s)))
	in.upload = renderCSV(full, 0, in.cut, rng)
	in.append = renderCSV(full, in.cut, full.Len(), rng)
	return in, nil
}

// renderCSV writes samples [from, to) as the wide numeric CSV the
// service ingests. Off renders below the threshold and On above it, with
// noise in the digits, so symbolizing at the threshold gives back exactly
// the generated symbols.
func renderCSV(db *ftpm.SymbolicDB, from, to int, rng *rand.Rand) []byte {
	var b bytes.Buffer
	b.WriteString("time")
	for _, s := range db.Series {
		b.WriteByte(',')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	var num []byte
	for i := from; i < to; i++ {
		b.WriteString(strconv.FormatInt(int64(db.Series[0].TimeAt(i)), 10))
		for _, s := range db.Series {
			v := rng.Float64() * 0.8 * liveSpec.threshold
			if s.Symbols[i] == 1 {
				v = 2*liveSpec.threshold + rng.Float64()*3
			}
			b.WriteByte(',')
			num = strconv.AppendFloat(num[:0], v, 'f', 3, 64)
			b.Write(num)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// prefix returns the first n samples of db.
func prefix(db *ftpm.SymbolicDB, n int) (*ftpm.SymbolicDB, error) {
	out := make([]*ftpm.SymbolicSeries, len(db.Series))
	for i, s := range db.Series {
		c := *s
		c.Symbols = s.Symbols[:n]
		out[i] = &c
	}
	return ftpm.NewSymbolicDB(out...)
}

// liveServer is an in-process durable server on a loopback listener.
type liveServer struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	fs     *countFS
	dir    string
}

func startServer(cfg config, i int, traced bool) (*liveServer, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("service-%d-%d", cfg.seed, i))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	opts := server.Options{Workers: procs, DataDir: dir}
	var fsys *countFS
	if traced {
		fsys = &countFS{FS: store.OS()}
		opts.FS = fsys
	}
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv)
	return &liveServer{srv: srv, ts: ts, client: ts.Client(), fs: fsys, dir: dir}, nil
}

func (l *liveServer) close() {
	l.ts.Close()
	l.srv.Close()
	_ = os.RemoveAll(l.dir) // best effort: a leftover directory is rewritten by the next run
}

// routeSample is one timed HTTP request.
type routeSample struct {
	route string
	ms    float64
}

// sessionLog is what one session observed.
type sessionLog struct {
	attempted, failed int
	routes            []routeSample
	jobMs             []float64
	// docs are the SHA-256 digests of the exact and the A-HTPGM /result
	// documents; pages counts the patterns the page walk returned.
	docs       [2][32]byte
	pages      int
	ok         bool
	levels     map[int]float64 // progress-event level durations, ms
	maxQueue   int
	rejections int
	// tr, id and root place the session's request spans in the trace.
	tr       *tracer
	id, root int
}

// request is one HTTP request of a session.
type request struct {
	route, method, url string
	// body is an in-memory request body; file names a file to stream
	// as the body instead.
	body []byte
	file string
	// accept sets the Accept header.
	accept string
	// digest, when set, receives the SHA-256 of a 2xx response body,
	// which is then streamed rather than kept.
	digest *[32]byte
}

// call makes one request, times it, reads the whole response and counts
// it as one operation; a non-2xx status fails it.
func (l *liveServer) call(sl *sessionLog, tenant string, r request) ([]byte, error) {
	var rd io.Reader
	size := int64(len(r.body))
	if r.file != "" {
		f, err := os.Open(r.file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		rd, size = f, fi.Size()
	} else if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, l.ts.URL+r.url, rd)
	if err != nil {
		return nil, err
	}
	req.ContentLength = size
	req.Header.Set("X-Tenant", tenant)
	if r.accept != "" {
		req.Header.Set("Accept", r.accept)
	}
	sl.attempted++
	sp := sl.tr.begin("server."+r.route, sl.id, sl.root)
	t0 := time.Now()
	resp, err := l.client.Do(req)
	var out []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		if r.digest != nil && status/100 == 2 {
			h := sha256.New()
			if _, err = io.Copy(h, resp.Body); err == nil {
				h.Sum(r.digest[:0])
			}
		} else {
			out, err = io.ReadAll(resp.Body)
		}
		resp.Body.Close()
	}
	sl.tr.end(sp)
	sl.routes = append(sl.routes, routeSample{r.route, ms(time.Since(t0))})
	if err != nil {
		sl.failed++
		return nil, err
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		sl.rejections++
	}
	if status/100 != 2 {
		sl.failed++
		return out, fmt.Errorf("%s %s: status %d: %s", r.method, r.url, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// session runs the seven steps of one tenant session. Any failed step
// ends the session; later steps are not attempted.
func (l *liveServer) session(in *sessionBodies, tenant string, tr *tracer, id int) *sessionLog {
	sp := liveSpec
	sl := &sessionLog{levels: make(map[int]float64), tr: tr, id: id}
	sl.root = tr.begin("session", id, -1)
	defer tr.end(sl.root)
	b, err := l.call(sl, tenant, request{route: "upload", method: "POST", file: in.upload,
		url: "/v1/datasets?name=live&format=numeric&threshold=" + strconv.FormatFloat(sp.threshold, 'g', -1, 64)})
	if err != nil {
		return sl
	}
	var ds struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &ds); err != nil || ds.ID == "" {
		sl.failed++
		return sl
	}
	req := map[string]any{
		"dataset_id": ds.ID, "min_support": sp.support, "min_confidence": sp.support,
		"max_pattern_size": sp.maxK, "window_length": int64(windowOf(sp.profile)), "workers": procs,
	}
	if !l.job(sl, tenant, req, 0) {
		return sl
	}
	if _, err := l.call(sl, tenant, request{route: "append", method: "POST", file: in.append,
		url: "/v1/datasets/" + ds.ID + "/append?format=csv"}); err != nil {
		return sl
	}
	req["approx"] = map[string]any{"density": sp.density}
	if !l.job(sl, tenant, req, 1) {
		return sl
	}
	if _, err := l.call(sl, tenant, request{route: "delete", method: "DELETE", url: "/v1/datasets/" + ds.ID}); err != nil {
		return sl
	}
	sl.ok = true
	return sl
}

// job submits one mining job, follows its event stream to the terminal
// state and fetches the result document; for the A-HTPGM job (slot 1)
// it then walks the pattern pages.
func (l *liveServer) job(sl *sessionLog, tenant string, req map[string]any, slot int) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	t0 := time.Now()
	b, err := l.call(sl, tenant, request{route: "submit", method: "POST", url: "/v1/jobs", body: body})
	if err != nil {
		return false
	}
	var info struct {
		ID         string `json:"id"`
		QueueDepth int    `json:"queue_depth"`
	}
	if err := json.Unmarshal(b, &info); err != nil || info.ID == "" {
		sl.failed++
		return false
	}
	if info.QueueDepth > sl.maxQueue {
		sl.maxQueue = info.QueueDepth
	}
	b, err = l.call(sl, tenant, request{route: "job_wait", method: "GET", url: "/v1/jobs/" + info.ID + "/events",
		accept: "application/x-ndjson"})
	if err != nil {
		return false
	}
	if state := readStream(b, sl.levels); state != "done" {
		sl.failed++
		return false
	}
	if _, err := l.call(sl, tenant, request{route: "result", method: "GET", url: "/v1/jobs/" + info.ID + "/result",
		digest: &sl.docs[slot]}); err != nil {
		return false
	}
	sl.jobMs = append(sl.jobMs, ms(time.Since(t0)))
	if slot == 0 {
		return true
	}
	token := ""
	for {
		url := fmt.Sprintf("/v1/jobs/%s/patterns?limit=%d", info.ID, liveSpec.pageLimit)
		if token != "" {
			url += "&page_token=" + token
		}
		b, err := l.call(sl, tenant, request{route: "page", method: "GET", url: url})
		if err != nil {
			return false
		}
		var page struct {
			Patterns      []json.RawMessage `json:"patterns"`
			NextPageToken string            `json:"next_page_token"`
		}
		if err := json.Unmarshal(b, &page); err != nil {
			sl.failed++
			return false
		}
		sl.pages += len(page.Patterns)
		if token = page.NextPageToken; token == "" {
			return true
		}
	}
}

// readStream returns the last state an NDJSON job stream reported and
// adds the per-level durations of its progress events to levels.
func readStream(b []byte, levels map[int]float64) string {
	state := ""
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		var line struct {
			Event string `json:"event"`
			Data  struct {
				State string `json:"state"`
				Level *struct {
					Level      int   `json:"level"`
					DurationMs int64 `json:"duration_ms"`
				} `json:"level"`
			} `json:"data"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch line.Event {
		case "state":
			state = line.Data.State
		case "progress":
			if lv := line.Data.Level; lv != nil {
				levels[lv.Level] += float64(lv.DurationMs)
			}
		}
	}
	return state
}

func runServiceLive(ctx context.Context, cfg config, traced bool) (*outcome, error) {
	sp := liveSpec
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Every session's request bodies, the warm-up sessions' included, are
	// written to files before the set-up starts.
	bodyDir := filepath.Join(cfg.dir, fmt.Sprintf("bodies-%d", cfg.seed))
	if err := os.MkdirAll(bodyDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(bodyDir)
	const warmups = 3
	n := iterations(cfg.seconds, sp.nominal, procs)
	bodies := make([]sessionBodies, warmups+n)
	errs := make([]error, procs)
	var wg sync.WaitGroup
	for c := 0; c < procs; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(bodies) && errs[c] == nil; i += procs {
				// Sessions 0..n-1 are measured; the warm-ups use -1, -2, -3.
				bodies[i], errs[c] = writeBodies(cfg, i-warmups, bodyDir)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	warm, bodies := bodies[:warmups], bodies[warmups:]

	// Set-up, three times: start a durable server on a fresh directory and
	// run one untimed warm-up session on it. The last server is measured.
	// setup_s is the median.
	var setupS []float64
	var live *liveServer
	for i := 0; i < warmups; i++ {
		t0 := time.Now()
		ls, err := startServer(cfg, i, traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if sl := ls.session(&warm[warmups-1-i], "warmup", nil, -1); !sl.ok {
			ls.close()
			return nil, fmt.Errorf("setup: warm-up session failed")
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < warmups-1 {
			ls.close()
		} else {
			live = ls
		}
	}
	defer live.close()

	logs := make([]*sessionLog, n)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	heapMB := peakLiveMB(func() {
		var wg sync.WaitGroup
		for c := 0; c < procs; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				think := pauses(cfg.seed*31+int64(c), (n-c+procs-1)/procs, sp.think)
				for s := c; s < n; s += procs {
					logs[s] = live.session(&bodies[s], tenants[c], tr, s)
					time.Sleep(think[s/procs])
				}
			}(c)
		}
		wg.Wait()
	})
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0

	// A session's two jobs, its two writes and its reads each differ
	// several-fold in cost, so a median over single requests would fall
	// between modes. The latency samples are per-session sums instead:
	// one homogeneous sample per session.
	var out outcome
	routes := make(map[string][]float64)
	var jobMs, ingestMs, fetchMs []float64
	jobs, maxQueue, rejected := 0, 0, 0
	for _, sl := range logs {
		out.attempted += sl.attempted
		out.failed += sl.failed
		var ingest, fetch float64
		for _, r := range sl.routes {
			routes[r.route] = append(routes[r.route], r.ms)
			switch r.route {
			case "upload", "append":
				ingest += r.ms
			case "result", "page":
				fetch += r.ms
			}
		}
		jobMs = append(jobMs, sum(sl.jobMs))
		ingestMs, fetchMs = append(ingestMs, ingest), append(fetchMs, fetch)
		jobs += len(sl.jobMs)
		if sl.maxQueue > maxQueue {
			maxQueue = sl.maxQueue
		}
		rejected += sl.rejections
	}

	// The service's own counters; a result-cache hit means two sessions
	// shared data, which the workload must never do.
	var md metricsDoc
	mlog := &sessionLog{root: -1}
	if b, err := live.call(mlog, "a", request{route: "metrics", method: "GET", url: "/v1/metrics"}); err == nil {
		if json.Unmarshal(b, &md) != nil || md.Cache.Result.Hits != 0 {
			mlog.failed++
		}
	}
	out.attempted += mlog.attempted
	out.failed += mlog.failed

	// Off the clock: every /result document must equal the library's
	// export for the same data and options, mined on the serial path.
	ver, err := verifySessions(ctx, cfg, logs, traced)
	if err != nil {
		return nil, err
	}
	out.failed += ver.failed
	out.digest = ver.digest

	m := &out.metrics
	m.add("setup_s", median(setupS))
	m.latency("job", jobMs)
	m.add("jobs_per_s", float64(jobs)/wall)
	m.add("peak_heap_mb", heapMB)
	m.add("success_rate", 1-float64(out.failed)/float64(out.attempted))
	m.add("approx_accuracy", ver.accuracy)
	m.latency("ingest", ingestMs)
	m.latency("fetch", fetchMs)
	if !traced {
		return &out, nil
	}

	for _, r := range []string{"upload", "append", "submit", "job_wait", "result", "page", "delete"} {
		m.add("server."+r+"_ms", median(routes[r]))
	}
	m.add("server.rejected", float64(rejected))
	m.add("server.max_queue_depth", float64(maxQueue))
	m.add("server.dseq_cache_hit_ratio", md.Cache.DSEQ.ratio())
	m.add("server.result_cache_hit_ratio", md.Cache.Result.ratio())
	m.add("hub.published", float64(md.Events.Published))
	m.add("hub.dropped", float64(md.Events.Dropped))
	m.add("store.wal_records", float64(md.Persistence.WALRecords))
	m.add("store.retries", float64(md.Health.StoreRetriesTotal))
	m.add("store.fsyncs", float64(live.fs.fsyncs.Load()))
	m.add("store.fsync_ms", float64(live.fs.fsyncNs.Load())/1e6)
	m.add("store.bytes_written", float64(live.fs.written.Load()))
	m.add("par.cpu_utilization", cpu/(wall*procs))
	var l1, l2 []float64
	for _, sl := range logs {
		l1 = append(l1, sl.levels[1])
		l2 = append(l2, sl.levels[2])
	}
	m.add("core.l1_ms", median(l1))
	m.add("core.l2_ms", median(l2))
	for name, v := range ver.layers.values {
		m.values[name] = v
	}
	if err := tr.dump(filepath.Join(cfg.dir, fmt.Sprintf("spans-service-live-%d.json", cfg.seed))); err != nil {
		return nil, err
	}
	return &out, nil
}

// pauses returns k seeded, exponentially distributed think times, scaled
// to sum to exactly k × mean.
func pauses(seed int64, k int, mean time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	draws := make([]float64, k)
	for i := range draws {
		draws[i] = rng.ExpFloat64()
	}
	scale := float64(k) * float64(mean) / sum(draws)
	out := make([]time.Duration, k)
	for i, d := range draws {
		out[i] = time.Duration(d * scale)
	}
	return out
}

// liveHeap is the runtime metric the service-live heap figure reads: the
// heap the last completed GC cycle marked live.
const liveHeap = "/gc/heap/live:bytes"

// peakLiveMB runs fn and returns the peak growth of the live heap during
// it over a settled baseline, in MiB, polling every 5 ms. Unlike the
// HeapAlloc peak that memtrack samples, the live heap holds no garbage
// awaiting collection, so the figure does not depend on where in a GC
// cycle the run happens to end; reading it does not stop the world.
func peakLiveMB(fn func()) float64 {
	sample := []rtmetrics.Sample{{Name: liveHeap}}
	read := func() uint64 {
		rtmetrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	runtime.GC()
	base, peak := read(), read()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return float64(peak-base) / (1 << 20)
}

// metricsDoc is the part of GET /v1/metrics the benchmark reads.
type metricsDoc struct {
	Cache struct {
		DSEQ   counterDoc `json:"dseq"`
		Result counterDoc `json:"result"`
	} `json:"cache"`
	Events struct {
		Published uint64 `json:"published"`
		Dropped   uint64 `json:"dropped"`
	} `json:"events"`
	Health struct {
		StoreRetriesTotal int64 `json:"store_retries_total"`
	} `json:"health"`
	Persistence struct {
		WALRecords int `json:"wal_records"`
	} `json:"persistence"`
}

type counterDoc struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

func (c counterDoc) ratio() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}
