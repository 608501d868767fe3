package server

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"ftpm"
)

// Dataset generation views. Every generation is one ftpm.SymbolSource:
// the upload, followed by one delta of only the appended samples per
// append, stitched together by chainSource. The in-memory server keeps
// each part as an in-heap symbolic database; a durable server seals each
// part into a columnar segment file (internal/server/store's "FTPMSEG1"
// format) and chains the mmap'd segments instead. Either way the mining
// pipeline runs the exact same conversion and NMI code over the exact
// same runs.

// chainSource is the SymbolSource of a dataset generation built by an
// append: the previous generation's view followed by a delta of the
// appended samples. The tail carries the full post-append alphabets
// (appends extend alphabets, never renumber them, so base symbol ids stay
// valid under the tail's alphabet); a run crossing the seam — the base's
// last run continued by the delta's first — is merged, so AppendRuns
// yields the same maximal runs a flat copy of the content would. Chains
// nest: generation g after g appends is a chain of depth g over the
// upload.
type chainSource struct {
	base ftpm.SymbolSource
	tail ftpm.SymbolSource
}

var _ ftpm.SymbolSource = (*chainSource)(nil)

func (c *chainSource) NumSeries() int                { return c.tail.NumSeries() }
func (c *chainSource) SeriesName(i int) string       { return c.tail.SeriesName(i) }
func (c *chainSource) SeriesAlphabet(i int) []string { return c.tail.SeriesAlphabet(i) }
func (c *chainSource) Len() int                      { return c.base.Len() + c.tail.Len() }
func (c *chainSource) Start() ftpm.Time              { return c.base.Start() }
func (c *chainSource) Step() ftpm.Duration           { return c.base.Step() }
func (c *chainSource) End() ftpm.Time {
	return c.Start() + ftpm.Time(c.Len())*c.Step()
}

// AppendRuns concatenates the base's and the tail's runs, rebasing the
// tail's positions past the base and merging the seam run when both sides
// carry the same symbol — the converters require maximal runs (a split
// run would double-count pattern instances).
func (c *chainSource) AppendRuns(i int, dst []ftpm.Run) []ftpm.Run {
	dst = c.base.AppendRuns(i, dst)
	mark := len(dst)
	dst = c.tail.AppendRuns(i, dst)
	off := c.base.Len()
	for j := mark; j < len(dst); j++ {
		dst[j].First += off
		dst[j].Last += off
	}
	if mark > 0 && len(dst) > mark && dst[mark-1].Symbol == dst[mark].Symbol {
		dst[mark-1].Last = dst[mark].Last
		dst = append(dst[:mark], dst[mark+1:]...)
	}
	return dst
}

// fingerprintChunk is how many bytes fingerprintSource batches before
// each hash write.
const fingerprintChunk = 32 << 10

// fingerprintSource hashes a source's full content — series names,
// timing, alphabets and every sample's symbol id in order — into a
// stable key. The result cache serves documents across datasets purely
// by this key, so the hash is collision-resistant (sha256) and the
// encoding unambiguous: every string and collection is length-prefixed,
// every integer 8 bytes little-endian. Runs are expanded sample by
// sample, so a dataset fingerprints identically however it is split
// into parts (one upload, a chain of appends) and wherever the parts
// live (heap or segments). The bytes are batched into one buffer and
// hashed every fingerprintChunk bytes.
func fingerprintSource(src ftpm.SymbolSource) string {
	h := sha256.New()
	buf := make([]byte, 0, fingerprintChunk+64)
	writeInt := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	writeStr := func(s string) {
		writeInt(int64(len(s)))
		buf = append(buf, s...)
	}
	n := src.NumSeries()
	writeInt(int64(n))
	var runs []ftpm.Run
	for i := 0; i < n; i++ {
		writeStr(src.SeriesName(i))
		writeInt(int64(src.Start()))
		writeInt(int64(src.Step()))
		alpha := src.SeriesAlphabet(i)
		writeInt(int64(len(alpha)))
		for _, a := range alpha {
			writeStr(a)
		}
		writeInt(int64(src.Len()))
		runs = src.AppendRuns(i, runs[:0])
		for _, r := range runs {
			for k := r.First; k <= r.Last; k++ {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Symbol))
				if len(buf) >= fingerprintChunk {
					h.Write(buf)
					buf = buf[:0]
				}
			}
		}
	}
	h.Write(buf)
	return fmt.Sprintf("%x", h.Sum(nil))
}
