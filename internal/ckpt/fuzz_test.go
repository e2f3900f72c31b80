package ckpt

import (
	"bytes"
	"encoding/binary"
	"sync/atomic"
	"testing"

	"frugal/internal/runtime"
)

// FuzzSegmentRead feeds arbitrary bytes to the delta-log segment reader
// as both a sealed segment (readSegment) and an unsealed one (salvage).
// Garbage must come back as an error or a shorter prefix — never a
// panic, and never a record whose key lies outside the slab it would
// replay onto. The reader sizes its buffers by the caller's dim alone,
// so a hostile record count or tier tag cannot size an allocation. The
// seeds are valid segments of the untagged format 1 (with and without
// optimizer state) and the tier-tagged format 2 (hot and cold records),
// plus a truncated one, an out-of-range key, a bad tier tag and a huge
// count.
func FuzzSegmentRead(f *testing.F) {
	const rows, dim = 16, 4
	row := []float32{1, -2, 0.5, 3}
	q := []int8{-128, 0, 5, 127}
	recs := []Record{
		{Key: 1, SafeStep: 3, RowImage: runtime.RowImage{Version: 2, State: 0.25, Row: row, Q: q}},
		{Key: 15, SafeStep: 4, RowImage: runtime.RowImage{Version: 9, Row: row, Q: q, Cold: true, Scale: 0.1, Zero: -1}},
	}
	// segment builds a tagged (format-2) segment; untaggedSegment builds
	// format 1.
	segment := func(hasState bool, count int64, recs []Record) []byte {
		hdr := segHeader{Magic: segMagic, Version: segVer, Dim: dim, Records: count, Watermark: 7}
		if hasState {
			hdr.HasState = 1
		}
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, hdr)
		for i := range recs {
			b.Write(appendRecord(nil, hasState, &recs[i]))
		}
		return b.Bytes()
	}
	v1 := untaggedSegment(dim, false, 2, 7, recs)
	v2 := segment(true, 2, recs)
	f.Add(v1)
	f.Add(untaggedSegment(dim, true, 2, 7, recs))
	f.Add(v2)
	f.Add(segment(false, 2, recs))
	f.Add(v2[:len(v2)-3])
	f.Add(segment(false, 1, []Record{{Key: 1 << 40, RowImage: runtime.RowImage{Row: row, Q: q}}}))
	f.Add(untaggedSegment(dim, false, 1<<62, 7, recs))
	badTag := bytes.Clone(v2)
	badTag[32+recordPrefix(true)] = 7
	f.Add(badTag)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fn := func(rec *Record) error {
			if rec.Key >= rows {
				t.Fatalf("reader passed key %d of a %d-row slab", rec.Key, rows)
			}
			return nil
		}
		readSegment(bytes.NewReader(data), "fuzz", rows, dim, fn)
		salvage(bytes.NewReader(data), rows, dim, fn)
	})
}

// FuzzMetaRead feeds arbitrary bytes to the sidecar reader over a 16-row
// host. It must either refuse them with an error or read exactly the
// vectors the bytes spell — never panic, and never size an allocation by
// the header's row count: the reader fills the caller's host and
// safe-step vector and allocates nothing. The seeds are a valid sidecar,
// a truncated body, a wrong magic, a wrong version, a row-count mismatch
// and a huge header row count.
func FuzzMetaRead(f *testing.F) {
	const rows = 16
	var valid bytes.Buffer
	if err := testReplica(f, rows).writeMeta(&valid); err != nil {
		f.Fatal(err)
	}
	v := valid.Bytes()
	withHeader := func(magic, version uint32, n int64) []byte {
		b := bytes.Clone(v)
		binary.LittleEndian.PutUint32(b[0:], magic)
		binary.LittleEndian.PutUint32(b[4:], version)
		binary.LittleEndian.PutUint64(b[8:], uint64(n))
		return b
	}
	f.Add(v)
	f.Add(v[:len(v)-5])
	f.Add(withHeader(segMagic, metaVer, rows))
	f.Add(withHeader(metaMagic, metaVer+1, rows))
	f.Add(withHeader(metaMagic, metaVer, rows-1))
	f.Add(withHeader(metaMagic, metaVer, 1<<62))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := runtime.NewHost(rows, 1)
		if err != nil {
			t.Fatal(err)
		}
		safe := make([]atomic.Int64, rows)
		wm, err := readMeta(bytes.NewReader(data), h, safe)
		if err != nil {
			return
		}
		const hdr = 24
		if len(data) < hdr+16*rows {
			t.Fatalf("accepted a %d-byte sidecar for %d rows", len(data), rows)
		}
		if want := int64(binary.LittleEndian.Uint64(data[16:])); wm != want {
			t.Fatalf("watermark %d, bytes say %d", wm, want)
		}
		for k := 0; k < rows; k++ {
			if got, want := safe[k].Load(), int64(binary.LittleEndian.Uint64(data[hdr+8*k:])); got != want {
				t.Fatalf("row %d safe step %d, bytes say %d", k, got, want)
			}
			if got, want := h.Version(uint64(k)), binary.LittleEndian.Uint64(data[hdr+8*(rows+k):]); got != want {
				t.Fatalf("row %d version %d, bytes say %d", k, got, want)
			}
		}
	})
}
