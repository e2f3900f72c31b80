package runtime

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// v1Checkpoint hand-builds a version-1 checkpoint: the header, the
// untagged rows×dim float32 body and, when state is non-nil, one float32
// of optimizer state per row. Host.Save no longer writes this format;
// files already on disk must still load.
func v1Checkpoint(rows [][]float32, state []float32) []byte {
	hdr := checkpointHeader{Magic: checkpointMagic, Version: 1, Rows: int64(len(rows)), Dim: int32(len(rows[0]))}
	if state != nil {
		hdr.HasState = 1
	}
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, hdr)
	for _, row := range rows {
		binary.Write(&b, binary.LittleEndian, row)
	}
	if state != nil {
		binary.Write(&b, binary.LittleEndian, state)
	}
	return b.Bytes()
}

// TestV1CheckpointLoads pins how a version-1 checkpoint loads, with and
// without optimizer state, through every loader: an untiered host holds
// the rows verbatim; a tiered one keeps the head of the key space hot
// (slot i ← row i) and quantizes the tail on entry, exactly as a tiered
// host filled with the same rows stores them. Versions stay 0.
func TestV1CheckpointLoads(t *testing.T) {
	const rows, dim, hotFrac = 8, 4, 0.25 // two hot slots
	want := make([][]float32, rows)
	state := make([]float32, rows)
	for k := range want {
		f := float32(k)
		want[k] = []float32{f + 0.25, -f, 2*f + 0.5, 1 / (f + 1)}
		state[k] = f*0.5 + 0.125
	}
	ref, err := NewTieredHost(rows, dim, hotFrac)
	if err != nil {
		t.Fatal(err)
	}
	ref.Init(func(k uint64, row []float32) { copy(row, want[k]) })

	for _, withState := range []bool{false, true} {
		var st []float32
		if withState {
			st = state
		}
		file := v1Checkpoint(want, st)
		flat, err := NewHost(rows, dim)
		if err != nil {
			t.Fatal(err)
		}
		if err := flat.Load(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
		tiered, err := NewTieredHost(rows, dim, hotFrac)
		if err != nil {
			t.Fatal(err)
		}
		if err := tiered.Load(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadHost(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		loadedTiered, err := LoadHostTiered(bytes.NewReader(file), hotFrac)
		if err != nil {
			t.Fatal(err)
		}
		hosts := map[string]*Host{"Load/untiered": flat, "Load/tiered": tiered, "LoadHost": loaded, "LoadHostTiered": loadedTiered}
		for name, h := range hosts {
			if h.Tiered() != (h == tiered || h == loadedTiered) {
				t.Fatalf("%s state=%v: tiered=%v", name, withState, h.Tiered())
			}
			if h.HasOptState() != withState {
				t.Fatalf("%s state=%v: HasOptState %v", name, withState, h.HasOptState())
			}
			for k := uint64(0); k < rows; k++ {
				got, exp := capture(h, k), capture(ref, k)
				if !h.Tiered() {
					exp = RowImage{Row: want[k], Q: make([]int8, dim)}
				}
				if got.Cold != exp.Cold || got.Scale != exp.Scale || got.Zero != exp.Zero ||
					!bytes.Equal(int8Bytes(got.Q), int8Bytes(exp.Q)) || !equalFloats(got.Row, exp.Row) {
					t.Fatalf("%s state=%v row %d: got %+v, want %+v", name, withState, k, got, exp)
				}
				if got.Version != 0 {
					t.Fatalf("%s state=%v row %d: version %d, want 0", name, withState, k, got.Version)
				}
				if withState && got.State != state[k] {
					t.Fatalf("%s row %d: state %v, want %v", name, k, got.State, state[k])
				}
			}
		}
	}
}

func capture(h *Host, key uint64) RowImage {
	img := RowImage{Row: make([]float32, h.Dim()), Q: make([]int8, h.Dim())}
	h.CaptureRow(key, &img)
	return img
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
