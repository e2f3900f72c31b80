package ckpt

import (
	"bytes"
	"sync/atomic"
	"testing"

	"frugal/internal/obs"
	"frugal/internal/runtime"
)

// testReplica builds a rows×1 replica whose row k has safe step k−1 and
// version 3k, at watermark 42.
func testReplica(tb testing.TB, rows int64) *Replica {
	tb.Helper()
	h, err := runtime.NewHost(rows, 1)
	if err != nil {
		tb.Fatal(err)
	}
	r := &Replica{host: h, safe: make([]atomic.Int64, rows), obs: obs.NewReplicaObs()}
	for k := range r.safe {
		r.safe[k].Store(int64(k) - 1)
		h.SetVersion(uint64(k), 3*uint64(k))
	}
	r.wm.Store(42)
	return r
}

// TestMetaRoundtrip: a sidecar written from a replica reads back into a
// fresh host's versions and safe-step vector unchanged, and a sidecar
// for another row count is refused.
func TestMetaRoundtrip(t *testing.T) {
	in := testReplica(t, 3)
	var b bytes.Buffer
	if err := in.writeMeta(&b); err != nil {
		t.Fatal(err)
	}
	h, err := runtime.NewHost(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	safe := make([]atomic.Int64, 3)
	wm, err := readMeta(bytes.NewReader(b.Bytes()), h, safe)
	if err != nil {
		t.Fatal(err)
	}
	if wm != 42 {
		t.Fatalf("watermark %d, want 42", wm)
	}
	for k := range safe {
		if safe[k].Load() != in.safe[k].Load() || h.Version(uint64(k)) != in.host.Version(uint64(k)) {
			t.Fatalf("row %d roundtrip: safe %d version %d", k, safe[k].Load(), h.Version(uint64(k)))
		}
	}
	h5, err := runtime.NewHost(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readMeta(bytes.NewReader(b.Bytes()), h5, make([]atomic.Int64, 5)); err == nil {
		t.Fatal("sidecar row-count mismatch accepted")
	}
}
