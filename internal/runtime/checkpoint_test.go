package runtime

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"frugal/internal/data"
)

func TestCheckpointRoundtrip(t *testing.T) {
	h, err := NewHost(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(k uint64, row []float32) {
		for i := range row {
			row[i] = float32(k)*10 + float32(i)
		}
	})
	h.EnableOptimizerState()
	h.ApplyDelta(7, make([]float32, 8), 3.5)

	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}

	h2, _ := NewHost(100, 8)
	if err := h2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		a, b := h.Snapshot(k), h2.Snapshot(k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d[%d]: %v != %v", k, i, a[i], b[i])
			}
		}
	}
	if h2.OptState(7) != 3.5 {
		t.Fatalf("optimizer state lost: %v", h2.OptState(7))
	}
}

func TestCheckpointNoState(t *testing.T) {
	h, _ := NewHost(10, 2)
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h2, _ := NewHost(10, 2)
	if err := h2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if h2.state != nil {
		t.Fatal("state slab should stay disabled")
	}
}

func TestCheckpointValidation(t *testing.T) {
	h, _ := NewHost(10, 2)
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Shape mismatch.
	wrong, _ := NewHost(10, 4)
	if err := wrong.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("shape mismatch must error")
	}
	// Bad magic.
	bad := append([]byte{}, buf.Bytes()...)
	bad[0] ^= 0xFF
	if err := h.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic must error")
	}
	// Truncated.
	if err := h.Load(bytes.NewReader(buf.Bytes()[:16])); err == nil {
		t.Fatal("truncated checkpoint must error")
	}
}

// TestCheckpointResume: train, checkpoint, resume into a fresh job, and
// confirm training continues from the saved parameters (warm-start loss ≈
// the pre-checkpoint loss, well below a cold start).
func TestCheckpointResume(t *testing.T) {
	mkJob := func(seedOffset int64) *Job {
		// lr stays small: a hot key can repeat within one batch, and the
		// per-occurrence gradients sum (effective lr × count must stay < 1
		// for the quadratic micro task to contract).
		trace := data.NewSyntheticTrace(data.NewScrambledZipf(23, 400, 0.9), 64, 60)
		job, err := NewMicro(Config{
			Engine: EngineFrugal, NumGPUs: 2, Rows: 400, Dim: 4,
			LR: 0.05, Seed: 23 + seedOffset, CheckConsistency: true,
		}, trace, 0)
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	first := mkJob(0)
	res1, err := first.Run()
	if err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := first.Host().Save(&ckpt); err != nil {
		t.Fatal(err)
	}

	resumed := mkJob(100) // different init seed — must be overwritten by Load
	if err := resumed.Host().Load(&ckpt); err != nil {
		t.Fatal(err)
	}
	res2, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	coldFirst := res1.Losses[0]
	warmFirst := res2.Losses[0]
	if warmFirst > coldFirst*0.8 {
		t.Fatalf("warm start (%v) should be well below cold start (%v)", warmFirst, coldFirst)
	}
}

// TestCheckpointHugeHeaders: a bare header must be refused before its
// shape is allocated. 2^62×4 overflows a multiplied rows×dim bound (it
// wrapped to 0 and panicked in makeslice); 2^27×32 is inside the bound,
// but its 16 GiB body cannot fit in the input that remains.
func TestCheckpointHugeHeaders(t *testing.T) {
	if _, err := NewHost(1<<62, 4); err == nil {
		t.Fatal("NewHost(2^62, 4) accepted")
	}
	if _, err := NewTieredHost(1<<62, 4, 0.5); err == nil {
		t.Fatal("NewTieredHost(2^62, 4) accepted")
	}
	for _, tc := range []struct {
		rows int64
		dim  int32
		want string
	}{
		{1 << 62, 4, "exceeds"},
		{1 << 27, 32, "needs at least 17179869184 bytes, 0 remain"},
	} {
		raw := checkpointHeaderOnly(tc.rows, tc.dim)
		if _, err := LoadHost(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("LoadHost(%d×%d header): err = %v, want %q", tc.rows, tc.dim, err, tc.want)
		}
		if _, err := LoadHostTiered(bytes.NewReader(raw), 0.5); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("LoadHostTiered(%d×%d header): err = %v, want %q", tc.rows, tc.dim, err, tc.want)
		}
	}
	// A state flag other than 0 or 1 is refused.
	h, _ := NewHost(10, 2)
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[20:], 2)
	if _, err := LoadHost(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "state flag 2") {
		t.Fatalf("state flag 2: err = %v", err)
	}
}
