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
// compaction and tail-salvage be simple.
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
	"frugal/internal/tensor"
)

// Segment and sidecar magics. The base slab itself reuses the runtime
// checkpoint codec (and its own magic) unchanged.
//
// Segment format 2 is cut when the primary's host is tiered: each record
// carries a tier tag, and a cold row's payload is its verbatim quantized
// representation — (scale, zero) plus dim int8 codes, a quarter of the
// float32 image — with the dequantized Row still materialized on read so
// format-1 consumers of the Record see what they always saw. Verbatim
// codes are what make tiered reconstruction bit-identical: no
// dequantize→requantize round trip on either side of the log.
const (
	segMagic     = uint32(0xD17A5E60)
	metaMagic    = uint32(0xD17A5E61)
	fmtVer       = uint32(1)
	fmtVerTiered = uint32(2)
)

// Tier tags in a format-2 record.
const (
	recTagCold = byte(0)
	recTagHot  = byte(1)
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
// image is complete, and the tier-tagged capture itself. Row always holds
// the full-precision view (dequantized for a cold record); Cold, Scale,
// Zero and Q carry the verbatim quantized representation when the record
// came from a tiered host's cold tier (format 2 only).
type Record struct {
	Key      uint64
	SafeStep int64 // image contains every update committed at step ≤ SafeStep
	runtime.RowImage
}

// recordSize is the on-disk size of one format-1 record for dimension
// dim.
func recordSize(dim int, hasState bool) int {
	n := 8 + 8 + 8 + 4*dim
	if hasState {
		n += 4
	}
	return n
}

// recordFixed is the size of a record's tag-inclusive fixed prefix in
// format 2; the payload (4·dim hot, 8+dim cold) follows.
func recordFixed(hasState bool) int {
	if hasState {
		return 8 + 8 + 8 + 4 + 1
	}
	return 8 + 8 + 8 + 1
}

// maxRecordSize sizes a scratch buffer that fits any record of either
// format.
func maxRecordSize(dim int, hasState bool) int {
	payload := 4 * dim
	if 8+dim > payload {
		payload = 8 + dim
	}
	return recordFixed(hasState) + payload
}

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
	return readSegment(bufio.NewReaderSize(f, 1<<16), filepath.Base(path), rows, dim, fn)
}

func readSegment(r io.Reader, name string, rows int64, dim int, fn func(*Record) error) (int64, error) {
	hdr, err := readSegHeader(r, dim)
	if err != nil {
		return 0, fmt.Errorf("ckpt: segment %s: %w", name, err)
	}
	rec := newRecord(dim)
	buf := make([]byte, maxRecordSize(dim, hdr.HasState == 1))
	for i := int64(0); i < hdr.Records; i++ {
		if err := readRecord(r, &hdr, rows, buf, &rec); err != nil {
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
	return salvage(bufio.NewReaderSize(f, 1<<16), rows, dim, fn)
}

func salvage(r io.Reader, rows int64, dim int, fn func(*Record) error) (records int64, err error) {
	hdr, err := readSegHeader(r, dim)
	if err != nil {
		return 0, nil // not even a complete header: nothing to salvage
	}
	rec := newRecord(dim)
	buf := make([]byte, maxRecordSize(dim, hdr.HasState == 1))
	for i := int64(0); i < hdr.Records; i++ {
		if err := readRecord(r, &hdr, rows, buf, &rec); err != nil {
			return records, nil // torn or corrupt tail: keep the complete prefix
		}
		if err := fn(&rec); err != nil {
			return records, err
		}
		records++
	}
	return records, nil
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
	if hdr.Version != fmtVer && hdr.Version != fmtVerTiered {
		return hdr, fmt.Errorf("unsupported segment version %d", hdr.Version)
	}
	if int(hdr.Dim) != dim {
		return hdr, fmt.Errorf("segment dim %d, want %d", hdr.Dim, dim)
	}
	if hdr.Records < 0 {
		return hdr, fmt.Errorf("negative record count %d", hdr.Records)
	}
	return hdr, nil
}

func encodeRecord(buf []byte, hasState bool, rec *Record) {
	binary.LittleEndian.PutUint64(buf[0:], rec.Key)
	binary.LittleEndian.PutUint64(buf[8:], rec.Version)
	binary.LittleEndian.PutUint64(buf[16:], uint64(rec.SafeStep))
	off := 24
	if hasState {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(rec.State))
		off += 4
	}
	for i, v := range rec.Row {
		binary.LittleEndian.PutUint32(buf[off+4*i:], math.Float32bits(v))
	}
}

func decodeRecord(buf []byte, hasState bool, rec *Record) {
	rec.Key = binary.LittleEndian.Uint64(buf[0:])
	rec.Version = binary.LittleEndian.Uint64(buf[8:])
	rec.SafeStep = int64(binary.LittleEndian.Uint64(buf[16:]))
	off := 24
	if hasState {
		rec.State = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	} else {
		rec.State = 0
	}
	for i := range rec.Row {
		rec.Row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4*i:]))
	}
}

// encodeRecordTiered lays out a format-2 record and returns its size.
func encodeRecordTiered(buf []byte, hasState bool, rec *Record) int {
	binary.LittleEndian.PutUint64(buf[0:], rec.Key)
	binary.LittleEndian.PutUint64(buf[8:], rec.Version)
	binary.LittleEndian.PutUint64(buf[16:], uint64(rec.SafeStep))
	off := 24
	if hasState {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(rec.State))
		off += 4
	}
	if rec.Cold {
		buf[off] = recTagCold
		off++
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(rec.Scale))
		binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(rec.Zero))
		off += 8
		for i, c := range rec.Q {
			buf[off+i] = byte(c)
		}
		return off + len(rec.Q)
	}
	buf[off] = recTagHot
	off++
	for i, v := range rec.Row {
		binary.LittleEndian.PutUint32(buf[off+4*i:], math.Float32bits(v))
	}
	return off + 4*len(rec.Row)
}

// readRecord streams one record of either format into rec. rec.Row (and,
// for format 2, rec.Q) must be pre-sized to the segment's dim; buf must
// hold maxRecordSize bytes. A short read — including a tear between the
// fixed prefix and the payload — surfaces as an io error, and a key at
// or beyond rows as a range error.
func readRecord(r io.Reader, hdr *segHeader, rows int64, buf []byte, rec *Record) error {
	hasState := hdr.HasState == 1
	if hdr.Version == fmtVer {
		n := recordSize(int(hdr.Dim), hasState)
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return err
		}
		decodeRecord(buf[:n], hasState, rec)
		rec.Cold = false
		return checkKey(rec.Key, rows)
	}
	fixed := recordFixed(hasState)
	if _, err := io.ReadFull(r, buf[:fixed]); err != nil {
		return err
	}
	rec.Key = binary.LittleEndian.Uint64(buf[0:])
	if err := checkKey(rec.Key, rows); err != nil {
		return err
	}
	rec.Version = binary.LittleEndian.Uint64(buf[8:])
	rec.SafeStep = int64(binary.LittleEndian.Uint64(buf[16:]))
	rec.State = 0
	if hasState {
		rec.State = math.Float32frombits(binary.LittleEndian.Uint32(buf[24:]))
	}
	dim := int(hdr.Dim)
	switch buf[fixed-1] {
	case recTagHot:
		if _, err := io.ReadFull(r, buf[:4*dim]); err != nil {
			return err
		}
		rec.Cold, rec.Scale, rec.Zero = false, 0, 0
		for i := range rec.Row {
			rec.Row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	case recTagCold:
		if _, err := io.ReadFull(r, buf[:8+dim]); err != nil {
			return err
		}
		rec.Cold = true
		rec.Scale = math.Float32frombits(binary.LittleEndian.Uint32(buf[0:]))
		rec.Zero = math.Float32frombits(binary.LittleEndian.Uint32(buf[4:]))
		for i := 0; i < dim; i++ {
			rec.Q[i] = int8(buf[8+i])
		}
		tensor.DequantizeRow(rec.Q, rec.Scale, rec.Zero, rec.Row)
	default:
		return fmt.Errorf("invalid tier tag %d", buf[fixed-1])
	}
	return nil
}

// checkKey refuses a record key outside the slab it replays onto.
func checkKey(key uint64, rows int64) error {
	if key >= uint64(rows) {
		return fmt.Errorf("key %d out of range (rows %d)", key, rows)
	}
	return nil
}
