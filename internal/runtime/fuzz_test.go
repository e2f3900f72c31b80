package runtime

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// checkpointHeaderOnly is a version-1 checkpoint header with no body.
func checkpointHeaderOnly(rows int64, dim int32) []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, checkpointHeader{Magic: checkpointMagic, Version: 1, Rows: rows, Dim: dim})
	return b.Bytes()
}

// FuzzCheckpointLoad feeds arbitrary bytes to every checkpoint loader:
// Host.Load on an untiered and on a tiered 4×2 host, LoadHost and
// LoadHostTiered. Garbage must come back as an error — never a panic,
// and never an allocation the input could not fill (two seeds are bare
// headers claiming 2^62×4 and 2^27×32 rows). A host LoadHost accepts
// must save canonically: save, reload and save again give equal bytes.
func FuzzCheckpointLoad(f *testing.F) {
	rows := [][]float32{{1, -2}, {0.5, 3}, {-1, 0}, {2, 2}}
	state := []float32{0.25, 0, 1, 2}
	fill := func(k uint64, row []float32) { copy(row, rows[k]) }
	save := func(tb testing.TB, h *Host) []byte {
		var b bytes.Buffer
		if err := h.Save(&b); err != nil {
			tb.Fatal(err)
		}
		return b.Bytes()
	}
	flat, _ := NewHost(4, 2)
	flat.Init(fill)
	tiered, _ := NewTieredHost(4, 2, 0.5) // rows 0–1 hot, 2–3 cold
	tiered.Init(fill)
	tiered.EnableOptimizerState()
	untaggedState := v1Checkpoint(rows, state)
	flatSaved, tieredSaved := save(f, flat), save(f, tiered)

	f.Add(v1Checkpoint(rows, nil))
	f.Add(untaggedState)
	f.Add(flatSaved)
	f.Add(tieredSaved)
	f.Add(tieredSaved[:len(tieredSaved)-3])
	f.Add(flatSaved[:8])
	f.Add([]byte{})
	badTag := bytes.Clone(tieredSaved)
	badTag[32] = 7 // row 0's tier tag
	f.Add(badTag)
	bigHotCap := bytes.Clone(flatSaved)
	binary.LittleEndian.PutUint64(bigHotCap[24:], 5)
	f.Add(bigHotCap)
	badState := bytes.Clone(untaggedState)
	binary.LittleEndian.PutUint32(badState[20:], 2)
	f.Add(badState)
	f.Add(checkpointHeaderOnly(1<<62, 4))
	f.Add(checkpointHeaderOnly(1<<27, 32))

	f.Fuzz(func(t *testing.T, raw []byte) {
		flat, _ := NewHost(4, 2)
		_ = flat.Load(bytes.NewReader(raw))
		tiered, _ := NewTieredHost(4, 2, 0.5)
		_ = tiered.Load(bytes.NewReader(raw))
		_, _ = LoadHostTiered(bytes.NewReader(raw), 0.5)
		h, err := LoadHost(bytes.NewReader(raw))
		if err != nil {
			return
		}
		once := save(t, h)
		again, err := LoadHost(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("reloading a saved host: %v", err)
		}
		if !bytes.Equal(once, save(t, again)) {
			t.Fatal("save → load → save is not canonical")
		}
	})
}
