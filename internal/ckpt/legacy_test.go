package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frugal/internal/runtime"
)

// appendUntaggedRecord lays out one format-1 record: key, version, safe
// step, optimizer state when the segment carries it, then the row as
// 4·dim float32 bytes with no tier tag. writeSegment no longer writes
// this format; segments already on disk must still replay.
func appendUntaggedRecord(buf []byte, hasState bool, rec *Record) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, rec.Key)
	buf = binary.LittleEndian.AppendUint64(buf, rec.Version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.SafeStep))
	if hasState {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(rec.State))
	}
	for _, v := range rec.Row {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	return buf
}

// untaggedSegment hand-builds a format-1 segment whose header claims
// count records.
func untaggedSegment(dim int, hasState bool, count, watermark int64, recs []Record) []byte {
	hdr := segHeader{Magic: segMagic, Version: 1, Dim: int32(dim), Records: count, Watermark: watermark}
	if hasState {
		hdr.HasState = 1
	}
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, hdr)
	var buf []byte
	for i := range recs {
		buf = appendUntaggedRecord(buf[:0], hasState, &recs[i])
		b.Write(buf)
	}
	return b.Bytes()
}

// TestFormat1SegmentLoads pins how a format-1 segment replays, with and
// without optimizer state, over an untiered and a tiered base: each
// record lands as a hot image at its version, state and safe step. On
// the tiered host (two hot slots, rows 0 and 1) key 1 is already hot,
// and key 6 evicts the clock sweep's first victim, row 0, which is
// requantized from its float32 image.
func TestFormat1SegmentLoads(t *testing.T) {
	const rows, dim, hotFrac = 8, 4, 0.25
	rowOf := func(k uint64, salt float32) []float32 {
		f := float32(k)
		return []float32{f + salt, -f, 2*f + 0.5, 1 / (f + 1)}
	}
	recs := []Record{
		{Key: 1, SafeStep: 4, RowImage: runtime.RowImage{Version: 3, State: 1.5, Row: rowOf(1, 100)}},
		{Key: 6, SafeStep: 6, RowImage: runtime.RowImage{Version: 5, State: 2.5, Row: rowOf(6, 100)}},
	}
	// quantized is row as a tiered host's cold tail stores it.
	quantized := func(row []float32) runtime.RowImage {
		q, err := runtime.NewTieredHost(rows, dim, hotFrac)
		if err != nil {
			t.Fatal(err)
		}
		q.SetRow(rows-1, row, 0, 0)
		return capture(q, rows-1)
	}

	for _, tiered := range []bool{false, true} {
		for _, hasState := range []bool{false, true} {
			var base *runtime.Host
			var err error
			if tiered {
				base, err = runtime.NewTieredHost(rows, dim, hotFrac)
			} else {
				base, err = runtime.NewHost(rows, dim)
			}
			if err != nil {
				t.Fatal(err)
			}
			base.Init(func(k uint64, row []float32) { copy(row, rowOf(k, 0)) })
			if hasState {
				base.EnableOptimizerState()
			}
			dir := t.TempDir()
			var b bytes.Buffer
			if err := base.Save(&b); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "base-0000000000.ckpt"), b.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			seg := untaggedSegment(dim, hasState, int64(len(recs)), 9, recs)
			if err := os.WriteFile(filepath.Join(dir, "seg-0000000001.dlog"), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := OpenReplica(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.CatchUp(); err != nil {
				t.Fatal(err)
			}

			h := r.Host()
			name := map[bool]string{false: "untiered", true: "tiered"}[tiered]
			if h.Tiered() != tiered || h.HasOptState() != hasState || r.Watermark() != 9 || r.Seq() != 1 {
				t.Fatalf("%s state=%v: tiered=%v state=%v watermark=%d seq=%d", name, hasState,
					h.Tiered(), h.HasOptState(), r.Watermark(), r.Seq())
			}
			byKey := map[uint64]*Record{recs[0].Key: &recs[0], recs[1].Key: &recs[1]}
			for k := uint64(0); k < rows; k++ {
				got := capture(h, k)
				want := runtime.RowImage{Row: rowOf(k, 0), Q: make([]int8, dim)}
				wantSafe := int64(-1)
				if rec := byKey[k]; rec != nil {
					want = runtime.RowImage{Version: rec.Version, Row: rec.Row, Q: make([]int8, dim)}
					if hasState {
						want.State = rec.State
					}
					wantSafe = rec.SafeStep
				} else if tiered {
					want = quantized(rowOf(k, 0))
				}
				if got.Cold != want.Cold || got.Scale != want.Scale || got.Zero != want.Zero ||
					!bytes.Equal(int8Bytes(got.Q), int8Bytes(want.Q)) || !equalFloats(got.Row, want.Row) {
					t.Fatalf("%s state=%v row %d: got %+v, want %+v", name, hasState, k, got, want)
				}
				if got.Version != want.Version || got.State != want.State || r.safe[k].Load() != wantSafe {
					t.Fatalf("%s state=%v row %d: version %d state %v safe %d, want %d %v %d", name, hasState, k,
						got.Version, got.State, r.safe[k].Load(), want.Version, want.State, wantSafe)
				}
			}
		}
	}
}

func capture(h *runtime.Host, key uint64) runtime.RowImage {
	img := runtime.RowImage{Row: make([]float32, h.Dim()), Q: make([]int8, h.Dim())}
	h.CaptureRow(key, &img)
	return img
}

func int8Bytes(q []int8) []byte {
	b := make([]byte, len(q))
	for i, c := range q {
		b[i] = byte(c)
	}
	return b
}

func equalFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSegmentStateFlag: a segment header whose state flag is neither 0
// nor 1 is refused, in either format.
func TestSegmentStateFlag(t *testing.T) {
	for _, version := range []uint32{segVerUntagged, segVer} {
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, segHeader{Magic: segMagic, Version: version, Dim: 4, HasState: 2})
		_, err := readSegment(&b, "flag", 8, 4, func(*Record) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "state flag 2") {
			t.Fatalf("format %d, state flag 2: err = %v", version, err)
		}
	}
}
