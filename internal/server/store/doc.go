// Package store implements the durable storage behind the mining
// service's persistence: a write-ahead log of opaque service events, an
// atomically-replaced compacting snapshot, and immutable columnar
// segment files holding dataset payloads out-of-core. Everything is
// fsync'd and CRC-framed; recovery never trusts a byte a checksum does
// not cover.
//
// # Write-ahead log ("FTPMLOG1")
//
// The WAL and the snapshot file both start with an 8-byte magic that
// bakes in the format version; after it come length-prefixed records:
//
//	[u32 crc32][u32 payload len][u8 kind][u64 lsn][payload]
//
// The CRC (IEEE) covers everything after itself — length, kind, LSN and
// payload — so a torn or bit-flipped tail fails verification no matter
// which byte was damaged. Recovery keeps the longest valid prefix and
// truncates the rest: a crash mid-append loses at most the record being
// written, never the file. The package stores bytes, not service state:
// callers choose the payload encoding (the mining service uses JSON) and
// the record kinds.
//
// # Snapshots
//
// Records carry a monotonically increasing log sequence number (LSN). A
// snapshot covers every event up to a captured LSN; on open, WAL records
// at or below it are skipped, so a crash between "snapshot renamed into
// place" and "WAL rewritten" replays nothing twice. One writer exists,
// and it streams: BeginSnapshot captures the LSN (and the WAL offset it
// corresponds to) up front, WriteChunk appends same-LSN records to a
// temp file while concurrent WAL appends proceed untouched, and Commit
// atomically renames the snapshot into place and then rewrites the WAL
// down to just the records logged after the capture point. Snapshot
// replacement is write-temp, fsync, rename, fsync-directory; a snapshot
// written as a single chunk is simply a one-record file.
//
// # Segment files ("FTPMSEG1")
//
// A segment seals one symbolized dataset generation as per-series
// run-length-encoded symbol columns — the exact maximal runs the DSEQ
// converter and the NMI tables consume. OpenSegment maps the file
// read-only (mmap on Unix, a plain read elsewhere) and serves it through
// the same SymbolSource interface an in-heap symbolic database
// implements, so mining from a segment is byte-identical to mining from
// RAM while the kernel pages column bytes in and out on demand. A
// fixed-size trailer locates the CRC-protected footer without scanning,
// and Open fully validates the run blocks in O(runs) before anything is
// served.
// Segments are immutable after the tmp+fsync+rename that creates them;
// appends seal new delta segments rather than rewriting existing ones.
// With payloads in segments, the WAL records only metadata plus segment
// references: dataset records shrink from O(samples) to O(1) and restart
// becomes a footer read per segment instead of a payload replay.
//
// # Fault injection and the VFS seam
//
// Every filesystem touch — WAL, snapshots, segments, directory syncs,
// mmaps — goes through the FS interface. Production code uses OS();
// tests swap in ErrFS, which counts mutating operations and injects a
// chosen error at the Nth one: sticky (a yanked disk — everything after
// the first failure fails too) or bounded via SetFailCount (a hiccup the
// retry path must absorb), optionally tearing a prefix of the failed
// write onto disk (SetTearBytes) or silently dropping fsyncs
// (SetDropSyncs, the lying-cache model). The fail-every-Nth-op sweep
// tests drive a full workload once per operation and assert that a
// restart from the surviving files replays exactly the acknowledged
// state.
//
// Errors surfacing from the log are classified by Classify into
// FaultTransient (EINTR-family: retry with backoff), FaultFatal
// (ENOSPC, EIO and everything else: the caller should stop writing and
// degrade), and FaultCorrupting (ErrPoisoned: a failed append whose
// rollback also failed left the in-memory offsets and the file
// disagreeing, so the log latches shut and only a reopen — which
// re-derives state from disk and truncates the torn tail — is safe).
// Sync errors are never discarded anywhere in this package: a failed
// fsync means the bytes may not be durable, and the caller must not
// acknowledge them (the syncerr analyzer in internal/lint, run by CI as
// cmd/ftpm-lint, enforces this repo-wide).
package store
