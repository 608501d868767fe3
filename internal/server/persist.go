package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftpm"
	"ftpm/internal/server/store"
)

// Persistence layer: the mining service's registry and job log survive
// restarts. Dataset payloads live out-of-core: every part of a dataset
// generation — the upload, then one delta per append — is sealed into
// an immutable segment file (internal/server/store's columnar format),
// so the write-ahead log under Options.DataDir records only metadata
// plus segment references — dataset ingested (shard width, fingerprint,
// segment name), dataset appended (the new generation and its delta
// segment), dataset removed, job submitted, job reached a terminal state
// (with summary and result document). The whole service state is
// periodically compacted into a snapshot streamed in bounded chunks at a
// captured LSN, with the WAL records logged during the snapshot retained
// past it. On startup the snapshot and WAL replay into the registry and
// job manager:
//
//   - Datasets come back with their original ids and shard widths,
//     served straight from their mmap'd segments (fingerprints read from
//     the records, not recomputed); the Analysis (NMI tables) and the
//     Prepared cache are re-derived, not persisted — they are
//     recomputable, and lazily so. A dataset record without segment
//     references (the full-payload shape written before segments
//     existed) fails startup with an error naming the dataset; the
//     record stays in the log untouched.
//   - Terminal jobs come back with their summaries and result documents
//     byte-identical; done jobs re-seed the result cache, so a repeat
//     submission after a restart is still a cache hit.
//   - Jobs that were queued or running when the process died re-queue
//     against their tenant (mining is pure, so the re-run is safe and
//     byte-identical, and the re-queued jobs count against the tenant's
//     quota immediately — admission control survives restarts). Only live
//     jobs whose dataset did not survive replay come back failed with a
//     distinguishable "lost to restart" error.
//
// Replay is idempotent — records re-applied over a snapshot that already
// contains them (possible when a crash lands between snapshot
// replacement and WAL truncation, or when an event races a concurrent
// snapshot) overwrite rather than duplicate.

// Record kinds of the service WAL.
const (
	kindDatasetAdded    store.Kind = 1
	kindDatasetRemoved  store.Kind = 2
	kindJobSubmitted    store.Kind = 3
	kindJobTerminal     store.Kind = 4
	kindDatasetAppended store.Kind = 5
)

// defaultSnapshotEvery is the record-count compaction trigger: a
// snapshot is written once this many WAL records accumulate since the
// previous one.
const defaultSnapshotEvery = 256

// maxWALBytes is the byte-based compaction trigger. Dataset records are
// O(1), but terminal job records carry result documents, so a byte bound
// keeps startup's whole-WAL read bounded regardless of record mix.
const maxWALBytes = 128 << 20

// Transient WAL-append faults (interrupted syscalls, briefly-busy
// devices) are retried this many times with doubling backoff before the
// append is declared failed; see persister.append.
const (
	appendMaxRetries     = 3
	appendInitialBackoff = 5 * time.Millisecond
)

// lostToRestart is the error restored onto live-at-crash jobs whose
// dataset did not survive replay (jobs whose dataset is present re-queue
// instead). The wording is part of the API: clients distinguish it from
// mining failures.
const lostToRestart = "lost to restart: the server restarted while the job was queued or running"

// datasetRecord is the persisted form of one dataset: identity plus
// references — the segment file names holding the columnar payload, the
// content fingerprint sealed into them, and the sample count. It is O(1)
// bytes regardless of dataset size, which keeps the WAL off the
// record-size cap and makes restart a footer read instead of a payload
// replay. Analysis and the Prepared cache are re-derived on restore.
// Generation and Threshold are omitempty so records written by earlier
// versions replay unchanged (generation 0, server-default threshold).
type datasetRecord struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	CreatedAt   time.Time `json:"created_at"`
	Shards      int       `json:"shards"`
	Generation  int64     `json:"generation,omitempty"`
	Threshold   *float64  `json:"threshold,omitempty"`
	Segments    []string  `json:"segments,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	Samples     int       `json:"samples,omitempty"`
}

// removeRecord is the payload of a dataset removal event.
type removeRecord struct {
	ID string `json:"id"`
}

// appendRecord is the payload of a dataset append event: the delta
// segment sealed by this append, the post-append total sample count and
// content fingerprint. PrevSamples is the per-series sample count the
// append applied to: replay folds the segment reference in only when the
// replayed dataset still has exactly that many samples, so a record
// re-applied over a snapshot that already contains it (crash between
// snapshot replacement and WAL truncation) is a no-op rather than a
// duplication. Gen still folds in monotonically either way, so
// generations never regress across restarts.
type appendRecord struct {
	ID          string `json:"id"`
	Gen         int64  `json:"generation"`
	PrevSamples int    `json:"prev_samples"`
	Segment     string `json:"segment,omitempty"`
	Samples     int    `json:"samples,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// jobRecord is one job's whole state: the live job holds one (job.rec)
// and serves JobInfo from it, and the WAL and snapshots persist copies.
// Submission events carry it without terminal fields; terminal events
// carry the full record (including the result document for done jobs),
// so either event alone reconstructs the job.
type jobRecord struct {
	ID      string        `json:"id"`
	Request MiningRequest `json:"request"`
	// Tenant is the owning tenant; replay rebuilds per-tenant quota
	// accounting from it, so admission control (429 + Retry-After)
	// survives restarts. Empty on records from before tenants existed —
	// those restore under the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Fingerprint is the content fingerprint of the dataset generation the
	// job ran against. Appends change a dataset's fingerprint, so restore
	// must key the re-seeded result cache by the generation the document
	// was actually mined from — keying by the restored dataset's current
	// fingerprint would serve a pre-append document for post-append
	// content. Empty on records from before appends existed; those are
	// keyed by the dataset's fingerprint, which is correct for a log that
	// can't contain appends.
	Fingerprint string            `json:"fingerprint,omitempty"`
	State       JobState          `json:"state"`
	Error       string            `json:"error,omitempty"`
	CreatedAt   time.Time         `json:"created_at"`
	StartedAt   *time.Time        `json:"started_at,omitempty"`
	FinishedAt  *time.Time        `json:"finished_at,omitempty"`
	Summary     *JobSummary       `json:"summary,omitempty"`
	Levels      []LevelTimingJSON `json:"levels,omitempty"`
	Doc         *ftpm.ResultJSON  `json:"doc,omitempty"`
	// EventSeq is the event hub's last assigned id when the record was
	// persisted. Restore seeds the hub's sequence past the maximum
	// recorded value, so event ids stay monotone across restarts and a
	// client's Last-Event-ID resume survives a server bounce instead of
	// silently replaying a restarted sequence.
	EventSeq uint64 `json:"event_seq,omitempty"`
}

// snapshotRecord is the payload of a compacting snapshot: the whole
// service state, datasets and jobs in insertion order. Live jobs are
// included as-is; if the process dies they finalize to "lost to restart"
// on the next open. DatasetSeq and JobSeq carry the id counters
// explicitly: the highest-numbered dataset or job may have been removed
// or evicted, so the surviving records alone cannot recover the
// high-water mark, and re-issuing an id would let stale job records
// (and the result cache they seed) cross-talk with new content.
type snapshotRecord struct {
	DatasetSeq int             `json:"dataset_seq"`
	JobSeq     int             `json:"job_seq"`
	EventSeq   uint64          `json:"event_seq,omitempty"`
	Datasets   []datasetRecord `json:"datasets"`
	Jobs       []jobRecord     `json:"jobs"`
}

// datasetRecordOf builds the persisted form of a dataset's current
// generation. Generations are immutable, so beyond the view() read no
// lock is needed.
func datasetRecordOf(d *Dataset) datasetRecord {
	g := d.view()
	threshold := d.threshold
	return datasetRecord{
		ID:          d.id,
		Name:        d.name,
		CreatedAt:   d.createdAt,
		Shards:      d.shards,
		Generation:  g.gen,
		Threshold:   &threshold,
		Segments:    append([]string(nil), g.segments...),
		Fingerprint: g.fingerprint,
		Samples:     g.src.Len(),
	}
}

// persister serializes all durable writes of one server: WAL appends,
// the trigger-driven compaction, and the final snapshot at Close. All
// hook methods are nil-receiver-safe, so the in-memory server (DataDir
// "") calls them for free. Persistence failures (disk full, yanked
// volume) are logged and do not fail requests: availability of the
// in-memory service wins over durability of the event.
//
// Compaction streams through store.BeginSnapshot at a captured LSN, so
// appends are never blocked behind a snapshot's gather/marshal/fsync —
// p.mu is held only for the append itself and the trigger bookkeeping,
// while snapMu serializes whole snapshots against each other (background
// compaction, the replay-time catch-up and the final snapshot at close).
//
// Lock order: snapMu and p.mu are taken before any registry or job lock
// (the snapshot gather reads them), so hooks must be called while
// holding neither.
type persister struct {
	mu            sync.Mutex
	snapMu        sync.Mutex
	log           *store.Log
	snapshotEvery int
	// compacting marks an in-flight background compaction, so appends
	// that keep crossing the trigger while one runs don't stack more.
	compacting bool
	// snapshotFailures counts failed compaction attempts and lastErr
	// keeps the most recent failure; both are surfaced on /metrics so a
	// permanently-failing compaction (e.g. state grown past the store's
	// record cap) is an operator-visible condition, not just a log line.
	// Atomics, not p.mu: /metrics must stay responsive while a
	// compaction holds the lock.
	snapshotFailures atomic.Int64
	lastErr          atomic.Value // string
	// retries counts transient-append retry attempts (the
	// store_retries_total gauge); maxRetries and backoff are the retry
	// policy, fields so the fault tests can shrink the waits.
	retries    atomic.Int64
	maxRetries int
	backoff    time.Duration
	// noteFault (nil-safe) reports an ultimately-failed durable write to
	// the server, which counts it and — for fatal faults — flips into
	// degraded read-only mode.
	noteFault func(err error, fatal bool)
	// gather assembles the current service state for a compacting
	// snapshot; the server installs it after restore, so replay itself
	// never triggers compaction.
	gather func() snapshotRecord
	logf   func(format string, args ...any)
}

// recoveredState is the replayed service state, ready to load into the
// registry and job manager.
type recoveredState struct {
	datasets []datasetRecord
	jobs     []jobRecord
	// maxDatasetSeq / maxJobSeq are the highest id sequence numbers ever
	// observed (including removed datasets), so restored servers never
	// re-issue an id.
	maxDatasetSeq int
	maxJobSeq     int
	// maxEventSeq is the highest event-hub id any replayed record
	// carried; the hub reseeds past it so event ids never restart.
	maxEventSeq uint64
	// truncatedBytes and snapshotDamaged surface what recovery had to
	// discard, for the startup log line.
	truncatedBytes  int64
	snapshotDamaged bool
}

// parseSeq extracts the numeric suffix of an "<prefix><n>" id; 0 when
// the id has a different shape.
func parseSeq(id, prefix string) int {
	if !strings.HasPrefix(id, prefix) {
		return 0
	}
	n, err := strconv.Atoi(id[len(prefix):])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// openPersister opens the data directory and replays its snapshot and
// WAL into a recoveredState.
func openPersister(fsys store.FS, dir string, snapshotEvery int, logf func(string, ...any)) (*persister, *recoveredState, error) {
	log, rec, err := store.OpenFS(fsys, dir)
	if err != nil {
		return nil, nil, err
	}
	if snapshotEvery <= 0 {
		snapshotEvery = defaultSnapshotEvery
	}
	p := &persister{
		log:           log,
		snapshotEvery: snapshotEvery,
		maxRetries:    appendMaxRetries,
		backoff:       appendInitialBackoff,
		logf:          logf,
	}
	st, err := replay(rec)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return p, st, nil
}

// replay folds the snapshot and WAL records into the service state.
// Application is idempotent: added records overwrite existing entries,
// removals of absent entries are no-ops, and a terminal job record wins
// over its submission regardless of arrival order.
func replay(rec store.Recovery) (*recoveredState, error) {
	st := &recoveredState{
		snapshotDamaged: rec.SnapshotDamaged,
		truncatedBytes:  rec.TruncatedBytes,
	}
	dsIndex := make(map[string]int)
	jobIndex := make(map[string]int)
	noteDataset := func(id string) { st.maxDatasetSeq = max(st.maxDatasetSeq, parseSeq(id, "ds-")) }
	noteJob := func(id string) { st.maxJobSeq = max(st.maxJobSeq, parseSeq(id, "job-")) }
	putDataset := func(d datasetRecord) {
		noteDataset(d.ID)
		if i, ok := dsIndex[d.ID]; ok {
			st.datasets[i] = d
			return
		}
		dsIndex[d.ID] = len(st.datasets)
		st.datasets = append(st.datasets, d)
	}
	dropDataset := func(id string) {
		noteDataset(id)
		i, ok := dsIndex[id]
		if !ok {
			return
		}
		st.datasets = append(st.datasets[:i], st.datasets[i+1:]...)
		delete(dsIndex, id)
		for k, v := range dsIndex {
			if v > i {
				dsIndex[k] = v - 1
			}
		}
	}
	putJob := func(j jobRecord, terminal bool) {
		noteJob(j.ID)
		st.maxEventSeq = max(st.maxEventSeq, j.EventSeq)
		if i, ok := jobIndex[j.ID]; ok {
			// A submission record never downgrades a terminal state the
			// log already holds (a fast job's terminal append can race
			// ahead of its submission append).
			if !terminal && st.jobs[i].State.Terminal() {
				return
			}
			st.jobs[i] = j
			return
		}
		jobIndex[j.ID] = len(st.jobs)
		st.jobs = append(st.jobs, j)
	}

	if rec.Snapshot != nil {
		var snap snapshotRecord
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("server: corrupt snapshot payload: %w", err)
		}
		st.maxDatasetSeq = max(st.maxDatasetSeq, snap.DatasetSeq)
		st.maxJobSeq = max(st.maxJobSeq, snap.JobSeq)
		st.maxEventSeq = max(st.maxEventSeq, snap.EventSeq)
		for _, d := range snap.Datasets {
			putDataset(d)
		}
		for _, j := range snap.Jobs {
			putJob(j, j.State.Terminal())
		}
	}
	for _, r := range rec.Records {
		switch r.Kind {
		case kindDatasetAdded:
			var d datasetRecord
			if err := json.Unmarshal(r.Data, &d); err != nil {
				return nil, fmt.Errorf("server: corrupt dataset record (lsn %d): %w", r.LSN, err)
			}
			putDataset(d)
		case kindDatasetRemoved:
			var rm removeRecord
			if err := json.Unmarshal(r.Data, &rm); err != nil {
				return nil, fmt.Errorf("server: corrupt removal record (lsn %d): %w", r.LSN, err)
			}
			dropDataset(rm.ID)
		case kindDatasetAppended:
			var ar appendRecord
			if err := json.Unmarshal(r.Data, &ar); err != nil {
				return nil, fmt.Errorf("server: corrupt append record (lsn %d): %w", r.LSN, err)
			}
			applyAppend(st, dsIndex, ar)
		case kindJobSubmitted, kindJobTerminal:
			var j jobRecord
			if err := json.Unmarshal(r.Data, &j); err != nil {
				return nil, fmt.Errorf("server: corrupt job record (lsn %d): %w", r.LSN, err)
			}
			putJob(j, r.Kind == kindJobTerminal)
		default:
			// Unknown kinds are skipped, not fatal: a downgraded binary
			// reading a newer log should serve what it understands.
		}
	}
	return st, nil
}

// applyAppend folds one append record into the replayed state. The
// delta segment reference applies only when the dataset exists, does not
// already reference the segment, and still has exactly PrevSamples
// samples — a record whose data a later snapshot already contains is
// thereby a no-op, so crash-replay applies each append exactly once. The
// generation folds in monotonically regardless, so a skipped
// (already-applied) record still keeps the generation from regressing.
// Appends to datasets replay has already dropped (append record racing
// ahead of a removal's, or a removal earlier in the log) are skipped
// entirely.
func applyAppend(st *recoveredState, dsIndex map[string]int, ar appendRecord) {
	i, ok := dsIndex[ar.ID]
	if !ok {
		return
	}
	d := &st.datasets[i]
	if ar.Gen > d.Generation {
		d.Generation = ar.Gen
	}
	if ar.Segment == "" || len(d.Segments) == 0 || d.Samples != ar.PrevSamples {
		return
	}
	for _, seg := range d.Segments {
		if seg == ar.Segment {
			return
		}
	}
	d.Segments = append(d.Segments, ar.Segment)
	d.Samples = ar.Samples
	if ar.Fingerprint != "" {
		d.Fingerprint = ar.Fingerprint
	}
}

// append marshals and durably logs one event. Crossing a snapshot
// trigger — record count or WAL bytes — schedules a background
// compaction instead of running it inline, so the request that happens
// to land on the trigger does not pay the full-state marshal + fsync +
// rename itself. The compaction streams at a captured LSN, so durable
// writes arriving while it runs append to the WAL concurrently and are
// retained past the snapshot — nothing waits on it.
func (p *persister) append(kind store.Kind, v any) {
	if p == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		p.logf("persist: marshal failed: %v", err)
		return
	}
	p.mu.Lock()
	for attempt := 0; ; attempt++ {
		err = p.log.Append(kind, data)
		if err == nil {
			break
		}
		// Only transient faults are worth retrying; fatal ones (ENOSPC,
		// EIO) won't clear in milliseconds, and a corrupting fault means
		// the log itself refused further writes. The sleep holds p.mu —
		// deliberate: letting other appends interleave against a disk
		// that just faulted would only reorder their failures.
		if store.Classify(err) != store.FaultTransient || attempt >= p.maxRetries {
			break
		}
		p.retries.Add(1)
		time.Sleep(p.backoff << attempt)
	}
	if err != nil {
		p.mu.Unlock()
		if errors.Is(err, store.ErrClosed) {
			// A hook racing shutdown: the event is covered by the final
			// snapshot (or legitimately lost with the process), not a
			// storage fault.
			return
		}
		p.logf("persist: append failed (%s fault): %v", store.Classify(err), err)
		if f := p.noteFault; f != nil {
			f(err, true)
		}
		return
	}
	trigger := !p.compacting && p.gather != nil &&
		(p.log.WALRecords() >= p.snapshotEvery || p.log.WALBytes() >= maxWALBytes)
	if trigger {
		p.compacting = true
	}
	p.mu.Unlock()
	if trigger {
		go func() {
			p.compact()
			p.mu.Lock()
			p.compacting = false
			p.mu.Unlock()
		}()
	}
}

// snapshotChunk bounds one streamed snapshot chunk. Chunking keeps every
// WAL/snapshot record far below the store's per-record cap, so total
// service state is no longer bounded by it.
const snapshotChunk = 4 << 20

// compact streams a fresh snapshot of the whole service state at a
// captured LSN and trims the covered prefix out of the WAL. The gather
// callback may take registry and job locks; appends proceed throughout —
// anything logged mid-gather lands both in the snapshot and the retained
// WAL, which replay applies idempotently.
func (p *persister) compact() {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	if p.gather == nil {
		return
	}
	w, err := p.log.BeginSnapshot()
	if err != nil {
		p.noteSnapshotErr(err)
		return
	}
	data, err := json.Marshal(p.gather())
	if err != nil {
		w.Abort()
		p.noteSnapshotErr(err)
		return
	}
	for off := 0; off < len(data); off += snapshotChunk {
		end := min(off+snapshotChunk, len(data))
		if err := w.WriteChunk(data[off:end]); err != nil {
			p.noteSnapshotErr(err)
			return
		}
	}
	if err := w.Commit(); err != nil {
		p.noteSnapshotErr(err)
		return
	}
	p.lastErr.Store("")
}

// noteSnapshotErr records a failed compaction for the /metrics gauges. A
// close racing a scheduled background compaction loses benignly — the
// final snapshot already covered the state — so ErrClosed is not counted.
func (p *persister) noteSnapshotErr(err error) {
	if errors.Is(err, store.ErrClosed) {
		return
	}
	p.snapshotFailures.Add(1)
	p.lastErr.Store(err.Error())
	p.logf("persist: snapshot failed: %v", err)
	// A failed compaction is a counted store fault but not a fatal one:
	// the WAL still holds every record the snapshot would have covered,
	// so durability is intact — the server stays writable and the next
	// trigger retries.
	if f := p.noteFault; f != nil {
		f(err, false)
	}
}

// maybeCompact compacts if the WAL (e.g. as replayed at open) is already
// past the trigger.
func (p *persister) maybeCompact() {
	if p == nil {
		return
	}
	if p.log.WALRecords() >= p.snapshotEvery {
		p.compact()
	}
}

// datasetAdded logs a dataset ingestion.
func (p *persister) datasetAdded(d *Dataset) {
	if p == nil {
		return
	}
	p.append(kindDatasetAdded, datasetRecordOf(d))
}

// datasetRemoved logs a dataset removal.
func (p *persister) datasetRemoved(id string) {
	if p == nil {
		return
	}
	p.append(kindDatasetRemoved, removeRecord{ID: id})
}

// datasetAppended logs a dataset append.
func (p *persister) datasetAppended(rec appendRecord) {
	if p == nil {
		return
	}
	p.append(kindDatasetAppended, rec)
}

// jobSubmitted logs a job admission.
func (p *persister) jobSubmitted(rec jobRecord) {
	if p == nil {
		return
	}
	p.append(kindJobSubmitted, rec)
}

// jobTerminal logs a job's terminal transition, result document
// included.
func (p *persister) jobTerminal(rec jobRecord) {
	if p == nil {
		return
	}
	p.append(kindJobTerminal, rec)
}

// metrics reports the persistence gauges, nil when persistence is off.
func (p *persister) metrics() *PersistenceMetricsJSON {
	if p == nil {
		return nil
	}
	lastErr, _ := p.lastErr.Load().(string)
	return &PersistenceMetricsJSON{
		WALRecords:         p.log.WALRecords(),
		WALBytes:           p.log.WALBytes(),
		SnapshotAgeSeconds: time.Since(p.log.SnapshotTime()).Seconds(),
		SnapshotFailures:   p.snapshotFailures.Load(),
		LastError:          lastErr,
	}
}

// close takes a final compacting snapshot (so restarts after a clean
// shutdown replay one record instead of the whole WAL) and closes the
// log.
func (p *persister) close() {
	if p == nil {
		return
	}
	// compact takes snapMu, so an in-flight background compaction is
	// waited out rather than raced.
	if p.log.WALRecords() > 0 {
		p.compact()
	}
	if err := p.log.Close(); err != nil {
		p.logf("persist: close failed: %v", err)
	}
}
