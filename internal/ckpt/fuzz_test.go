package ckpt

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzSegmentRead feeds arbitrary bytes to the delta-log segment reader
// as both a sealed segment (readSegment) and an unsealed one (salvage).
// Garbage must come back as an error or a shorter prefix — never a
// panic, and never a record whose key lies outside the slab it would
// replay onto. The reader sizes its buffers by the caller's dim alone,
// so a hostile record count or tier tag cannot size an allocation. The
// seeds are valid segments of format 1 (with and without optimizer
// state) and tier-tagged format 2 (hot and cold records), plus a
// truncated one, an out-of-range key, a bad tier tag and a huge count.
func FuzzSegmentRead(f *testing.F) {
	const rows, dim = 16, 4
	row := []float32{1, -2, 0.5, 3}
	q := []int8{-128, 0, 5, 127}
	recs := []Record{
		{Key: 1, Version: 2, SafeStep: 3, State: 0.25, Row: row, Q: q},
		{Key: 15, Version: 9, SafeStep: 4, Row: row, Q: q, Cold: true, Scale: 0.1, Zero: -1},
	}
	segment := func(version uint32, hasState bool, count int64, recs []Record) []byte {
		hdr := segHeader{Magic: segMagic, Version: version, Dim: dim, Records: count, Watermark: 7}
		if hasState {
			hdr.HasState = 1
		}
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, hdr)
		buf := make([]byte, maxRecordSize(dim, hasState))
		for i := range recs {
			n := recordSize(dim, hasState)
			if version == fmtVerTiered {
				n = encodeRecordTiered(buf, hasState, &recs[i])
			} else {
				encodeRecord(buf, hasState, &recs[i])
			}
			b.Write(buf[:n])
		}
		return b.Bytes()
	}
	v1 := segment(fmtVer, false, 2, recs)
	v2 := segment(fmtVerTiered, true, 2, recs)
	f.Add(v1)
	f.Add(segment(fmtVer, true, 2, recs))
	f.Add(v2)
	f.Add(segment(fmtVerTiered, false, 2, recs))
	f.Add(v2[:len(v2)-3])
	f.Add(segment(fmtVerTiered, false, 1, []Record{{Key: 1 << 40, Row: row, Q: q}}))
	f.Add(segment(fmtVer, false, 1<<62, recs))
	badTag := bytes.Clone(v2)
	badTag[32+recordFixed(true)-1] = 7
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
