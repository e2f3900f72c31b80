// Package ckpt is Frugal's incremental (delta) checkpoint layer: a
// continuously written log of row images cut off the P²F flush stream,
// periodically compacted into the ordinary runtime checkpoint format.
// It removes the stop-the-world checkpoint: the step loop never pauses,
// because the log rides the flush hook (a cheap dirty-set insert) and a
// background sweeper does all the IO.
//
// # Log layout
//
// A log directory holds full checkpoints ("bases") and delta segments:
//
//	base-0000000000.ckpt    the initial slab (runtime checkpoint codec)
//	seg-0000000001.dlog     delta segment 1 (sealed)
//	seg-0000000002.dlog     delta segment 2 (sealed)
//	...
//	base-0000000016.ckpt    a compaction: bases 0..0 + segments 1..16 folded
//	base-0000000016.meta    its sidecar: watermark, per-row safe steps and versions
//
// A Replica reconstructs the slab by loading the highest-numbered base
// with its sidecar and replaying every higher-numbered segment in order;
// the log promises row bytes, row versions and safe steps through the
// last sealed segment. Segments are written to a .open temp name and
// renamed at seal, so a visible .dlog is always complete; a crash can
// leave at most one .open file, whose complete record prefix Salvage
// recovers (follower promotion).
//
// # Segments
//
// One segment is one sweep of the dirty set: every key flushed to host
// memory since the previous sweep, recorded as a full row image (key,
// version, safe step, optimizer state, row). Full images — not deltas —
// make replay idempotent and last-writer-wins, which is what lets
// compaction and tail-salvage be simple. The row is encoded by the
// runtime row codec (runtime.AppendImage / runtime.ReadImage), the same
// tier-tagged encoding a checkpoint body uses, so this package knows
// neither tag values nor the cold layout.
//
// Each record's safe step is the one-sided staleness guarantee
// transported from the primary: the image contains every update of that
// key committed at gate step ≤ SafeStep (p2f.Controller.RowStaleness
// semantics, probed in the same sweep that copies the row). Each
// segment's header carries the primary's committed-step watermark at
// sweep time; a follower that has applied through segment n reports that
// watermark, and per-key staleness = watermark − SafeStep.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"frugal/internal/runtime"
)

// Segment and sidecar magics and versions. The base slab itself is an
// ordinary runtime checkpoint with its own magic. writeSegment writes
// segVer, whose records end in a tier-tagged runtime row image (a cold
// row's codes verbatim, so tiered reconstruction is bit-identical);
// segVerUntagged segments, whose rows are bare float32 images, are
// still read.
const (
	segMagic       = uint32(0xD17A5E60)
	metaMagic      = uint32(0xD17A5E61)
	metaVer        = uint32(1)
	segVerUntagged = uint32(1)
	segVer         = uint32(2)
)

// segHeader opens every delta segment. Records — the count is fixed at
// sweep time — follow immediately; there is no trailer, so a complete
// prefix of a crashed write is still parseable.
type segHeader struct {
	Magic     uint32
	Version   uint32
	Dim       int32
	HasState  int32
	Records   int64
	Watermark int64 // primary committed-step watermark at sweep time
}

// Record is one logged row image: the key, the step through which the
// image is complete, and the tier-tagged capture itself. On disk it is
// the key, version, safe step and (when the segment carries optimizer
// state) state, then the row image's encoding. Row always holds the
// full-precision view, dequantized for a cold record.
type Record struct {
	Key      uint64
	SafeStep int64 // image contains every update committed at step ≤ SafeStep
	runtime.RowImage
}

// recordPrefix is the size of a record's fields before its row image.
func recordPrefix(hasState bool) int {
	if hasState {
		return 8 + 8 + 8 + 4
	}
	return 8 + 8 + 8
}

// maxRecordSize sizes a scratch buffer that fits any record.
func maxRecordSize(dim int) int { return recordPrefix(true) + runtime.MaxImageSize(dim) }

// SegmentInfo describes one sealed segment found in a log directory.
type SegmentInfo struct {
	Seq  int64
	Path string
}

// DirState is what ListDir finds: the highest base and every sealed
// segment numbered above it, in replay order.
type DirState struct {
	BaseSeq  int64
	BasePath string
	MetaPath string // "" when the base has no sidecar
	Segments []SegmentInfo
	// OpenPath is the crashed sweep's temp file, if one exists ("" —
	// the common case — otherwise). Only Salvage reads it.
	OpenPath string
}

// ListDir scans a log directory: the highest-numbered base plus every
// sealed segment above it, sorted for replay.
func ListDir(dir string) (DirState, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return DirState{}, fmt.Errorf("ckpt: %w", err)
	}
	st := DirState{BaseSeq: -1}
	var segs []SegmentInfo
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "base-") && strings.HasSuffix(name, ".ckpt"):
			seq, err := parseSeq(name, "base-", ".ckpt")
			if err != nil {
				return DirState{}, err
			}
			if seq > st.BaseSeq {
				st.BaseSeq = seq
				st.BasePath = filepath.Join(dir, name)
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".dlog"):
			seq, err := parseSeq(name, "seg-", ".dlog")
			if err != nil {
				return DirState{}, err
			}
			segs = append(segs, SegmentInfo{Seq: seq, Path: filepath.Join(dir, name)})
		case strings.HasSuffix(name, ".open"):
			st.OpenPath = filepath.Join(dir, name)
		}
	}
	if st.BaseSeq < 0 {
		return DirState{}, fmt.Errorf("ckpt: no base checkpoint in %s", dir)
	}
	if meta := strings.TrimSuffix(st.BasePath, ".ckpt") + ".meta"; fileExists(meta) {
		st.MetaPath = meta
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	for _, s := range segs {
		if s.Seq > st.BaseSeq {
			st.Segments = append(st.Segments, s)
		}
	}
	// Replay needs a gapless run: a missing segment (compacted away under
	// a slow reader) means the reader must restart from the newer base.
	want := st.BaseSeq + 1
	for _, s := range st.Segments {
		if s.Seq != want {
			return DirState{}, fmt.Errorf("ckpt: segment gap in %s: have base %d, next segment %d (want %d)",
				dir, st.BaseSeq, s.Seq, want)
		}
		want++
	}
	return st, nil
}

func parseSeq(name, prefix, suffix string) (int64, error) {
	num := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	seq, err := strconv.ParseInt(num, 10, 64)
	if err != nil || seq < 0 {
		return 0, fmt.Errorf("ckpt: bad log file name %q", name)
	}
	return seq, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// ReadSegment streams a sealed segment's records through fn (the Record
// and its Row buffer are reused between calls — copy what you keep) and
// returns the segment's watermark tag. rows is the height of the slab
// the records replay onto: a record keyed at or beyond it is refused
// with an error naming the segment and the record, before fn sees it.
func ReadSegment(path string, rows int64, dim int, fn func(*Record) error) (watermark int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return readSegment(f, filepath.Base(path), rows, dim, fn)
}

func readSegment(f io.Reader, name string, rows int64, dim int, fn func(*Record) error) (int64, error) {
	r := segReader(f, dim)
	hdr, err := readSegHeader(r, dim)
	if err != nil {
		return 0, fmt.Errorf("ckpt: segment %s: %w", name, err)
	}
	rec := newRecord(dim)
	for i := int64(0); i < hdr.Records; i++ {
		if err := readRecord(r, &hdr, rows, &rec); err != nil {
			return 0, fmt.Errorf("ckpt: segment %s: record %d/%d: %w", name, i, hdr.Records, err)
		}
		if err := fn(&rec); err != nil {
			return 0, err
		}
	}
	return hdr.Watermark, nil
}

// Salvage reads the complete record prefix of an unsealed (.open)
// segment — the one file a crashed sweep can leave behind — through fn.
// Truncated trailing bytes, and everything from a record keyed at or
// beyond rows on, are discarded; the count of records applied is
// returned. The segment's header watermark is NOT trusted (the sweep did
// not finish), so no watermark is returned.
func Salvage(path string, rows int64, dim int, fn func(*Record) error) (records int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	return salvage(f, rows, dim, fn)
}

func salvage(f io.Reader, rows int64, dim int, fn func(*Record) error) (records int64, err error) {
	r := segReader(f, dim)
	hdr, err := readSegHeader(r, dim)
	if err != nil {
		return 0, nil // not even a complete header: nothing to salvage
	}
	rec := newRecord(dim)
	for i := int64(0); i < hdr.Records; i++ {
		if err := readRecord(r, &hdr, rows, &rec); err != nil {
			return records, nil // torn or corrupt tail: keep the complete prefix
		}
		if err := fn(&rec); err != nil {
			return records, err
		}
		records++
	}
	return records, nil
}

// segReader buffers a segment for readRecord, which decodes records in
// place and so needs a buffer that holds the largest one.
func segReader(f io.Reader, dim int) *bufio.Reader {
	return bufio.NewReaderSize(f, max(1<<16, maxRecordSize(dim)))
}

// newRecord sizes a record's payload buffers for dimension dim.
func newRecord(dim int) Record {
	return Record{RowImage: runtime.RowImage{Row: make([]float32, dim), Q: make([]int8, dim)}}
}

func readSegHeader(r io.Reader, dim int) (segHeader, error) {
	var hdr segHeader
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return hdr, fmt.Errorf("header: %w", err)
	}
	if hdr.Magic != segMagic {
		return hdr, fmt.Errorf("not a delta segment (magic %#x)", hdr.Magic)
	}
	if hdr.Version != segVerUntagged && hdr.Version != segVer {
		return hdr, fmt.Errorf("unsupported segment version %d", hdr.Version)
	}
	if int(hdr.Dim) != dim {
		return hdr, fmt.Errorf("segment dim %d, want %d", hdr.Dim, dim)
	}
	if hdr.HasState != 0 && hdr.HasState != 1 {
		return hdr, fmt.Errorf("state flag %d, want 0 or 1", hdr.HasState)
	}
	if hdr.Records < 0 {
		return hdr, fmt.Errorf("negative record count %d", hdr.Records)
	}
	return hdr, nil
}

// appendRecord appends rec's encoding to buf.
func appendRecord(buf []byte, hasState bool, rec *Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rec.Key)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.SafeStep))
	if hasState {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(rec.State))
	}
	return runtime.AppendImage(buf, &rec.RowImage)
}

// readRecord decodes one record from r into rec, whose Row and Q are
// pre-sized to the segment's dim. A short read — including a tear
// between the prefix and the row image — surfaces as an io error, and a
// key at or beyond rows as a range error.
func readRecord(r *bufio.Reader, hdr *segHeader, rows int64, rec *Record) error {
	hasState := hdr.HasState == 1
	p, err := r.Peek(recordPrefix(hasState))
	if err != nil {
		return err
	}
	rec.Key = binary.LittleEndian.Uint64(p)
	if err := checkKey(rec.Key, rows); err != nil {
		return err
	}
	rec.Version = binary.LittleEndian.Uint64(p[8:])
	rec.SafeStep = int64(binary.LittleEndian.Uint64(p[16:]))
	rec.State = 0
	if hasState {
		rec.State = math.Float32frombits(binary.LittleEndian.Uint32(p[24:]))
	}
	r.Discard(len(p))
	return runtime.ReadImage(r, hdr.Version == segVer, &rec.RowImage)
}

// checkKey refuses a record key outside the slab it replays onto.
func checkKey(key uint64, rows int64) error {
	if key >= uint64(rows) {
		return fmt.Errorf("key %d out of range (rows %d)", key, rows)
	}
	return nil
}
