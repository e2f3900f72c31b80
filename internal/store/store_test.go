package store_test

import (
	"context"
	"strings"
	"testing"

	"frugal/internal/runtime"
	"frugal/internal/store"
)

func newHost(t *testing.T, rows int64, dim int) *runtime.Host {
	t.Helper()
	h, err := runtime.NewHost(rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(key uint64, row []float32) {
		for j := range row {
			row[j] = float32(key) + float32(j)*0.125
		}
	})
	return h
}

func TestLocalStoreUncoordinated(t *testing.T) {
	h := newHost(t, 16, 4)
	st, err := store.NewLocal(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Coordinated() {
		t.Fatal("uncoordinated local store reports coordinated")
	}
	if st.Rows() != 16 || st.Dim() != 4 {
		t.Fatalf("shape = %d×%d", st.Rows(), st.Dim())
	}

	dst := make([]float32, 4)
	if _, err := st.ReadRow(16, dst); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	v, err := st.ReadRow(3, dst)
	if err != nil || v != 0 {
		t.Fatalf("ReadRow = (%d, %v)", v, err)
	}
	if dst[1] != 3.125 {
		t.Fatalf("row = %v", dst)
	}

	// Write-through scatter: immediately visible, version bumped.
	if err := st.Scatter(0, []store.KeyDelta{{Key: 3, Delta: []float32{1, 1, 1, 1}}}); err != nil {
		t.Fatal(err)
	}
	v, _ = st.ReadRow(3, dst)
	if v != 1 || dst[1] != 4.125 {
		t.Fatalf("after scatter: version %d row %v", v, dst)
	}

	// Degenerate consistency surface.
	if wm := st.Watermark(); wm != -1 {
		t.Fatalf("watermark = %d, want -1", wm)
	}
	lag, wm, err := st.RowStaleness(3)
	if err != nil || lag != 0 || wm != -1 {
		t.Fatalf("RowStaleness = (%d, %d, %v)", lag, wm, err)
	}
	flushed, err := st.FlushKey(3)
	if err != nil || flushed {
		t.Fatalf("FlushKey = (%v, %v), want (false, nil)", flushed, err)
	}
}

func TestLocalStoreGatherAndTopK(t *testing.T) {
	h := newHost(t, 32, 4)
	st, err := store.NewLocal(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 0, 31, 5}
	dst := make([]float32, len(keys)*4)
	vers := make([]uint64, len(keys))
	if err := st.Gather(keys, dst, vers); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if dst[i*4] != float32(k) {
			t.Fatalf("gather[%d] key %d starts with %v", i, k, dst[i*4])
		}
	}
	if err := st.Gather(keys, dst[:3], nil); err == nil {
		t.Fatal("short dst accepted")
	}

	// Rows grow with the key, so the top scorer for a positive query is
	// the last row, descending from there.
	top, err := st.TopK(context.Background(), []float32{1, 1, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top[0].Key != 31 || top[1].Key != 30 || top[2].Key != 29 {
		t.Fatalf("topk = %+v", top)
	}
	if top[0].Score <= top[1].Score || top[1].Score <= top[2].Score {
		t.Fatalf("topk scores not descending: %+v", top)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.TopK(canceled, []float32{1, 1, 1, 1}, 3); err == nil {
		t.Fatal("canceled topk succeeded")
	}
}

func TestNewShardedValidation(t *testing.T) {
	if _, err := store.NewSharded(nil); err == nil {
		t.Fatal("empty shard list accepted")
	}
	a, _ := store.NewLocal(newHost(t, 16, 4), nil)
	b, _ := store.NewLocal(newHost(t, 16, 8), nil)
	if _, err := store.NewSharded([]store.Store{a, b}); err == nil {
		t.Fatal("mismatched dims accepted")
	}
}

// TestShardedOverLocalStores composes plain LocalStores (each holding
// the full key space — routing still sends each key to exactly one) and
// checks that scatters land only on the owner.
func TestShardedOverLocalStores(t *testing.T) {
	hosts := make([]*runtime.Host, 3)
	shards := make([]store.Store, 3)
	for i := range shards {
		hosts[i] = newHost(t, 30, 4)
		st, err := store.NewLocal(hosts[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = st
	}
	st, err := store.NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumShards() != 3 {
		t.Fatalf("NumShards = %d", st.NumShards())
	}

	upd := make([]store.KeyDelta, 30)
	for k := range upd {
		upd[k] = store.KeyDelta{Key: uint64(k), Delta: []float32{100, 0, 0, 0}}
	}
	if err := st.Scatter(0, upd); err != nil {
		t.Fatal(err)
	}
	// Each host must carry exactly its owned keys' bumps: version 1 on
	// the owner, 0 elsewhere.
	for k := uint64(0); k < 30; k++ {
		bumped := 0
		for i := range hosts {
			if hosts[i].Version(k) == 1 {
				bumped++
			}
		}
		if bumped != 1 {
			t.Fatalf("key %d bumped on %d shards, want exactly 1", k, bumped)
		}
	}
	// And the composed read must see the write.
	row := make([]float32, 4)
	for k := uint64(0); k < 30; k++ {
		v, err := st.ReadRow(k, row)
		if err != nil {
			t.Fatal(err)
		}
		if v != 1 || row[0] != float32(k)+100 {
			t.Fatalf("key %d: version %d row[0] %v", k, v, row[0])
		}
	}
}

func TestTrainSlabRejectsCoordinated(t *testing.T) {
	// A fake coordinated store: LocalStore cannot be coordinated without
	// a live controller, so use the interface directly.
	st := coordinatedFake{}
	if _, err := store.NewTrainSlab(st); err == nil {
		t.Fatal("coordinated store accepted as a training slab")
	} else if !strings.Contains(err.Error(), "uncoordinated") {
		t.Fatalf("error %q does not explain the constraint", err)
	}
}

type coordinatedFake struct{ store.Store }

func (coordinatedFake) Coordinated() bool { return true }

// TestTrainSlabWriteThrough checks the RowStore surface over an
// uncoordinated local store: reads, versioned writes, batch applies.
func TestTrainSlabWriteThrough(t *testing.T) {
	h := newHost(t, 16, 4)
	ls, err := store.NewLocal(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := store.NewTrainSlab(ls)
	if err != nil {
		t.Fatal(err)
	}
	var _ runtime.RowStore = slab

	if slab.Rows() != 16 || slab.Dim() != 4 {
		t.Fatalf("shape = %d×%d", slab.Rows(), slab.Dim())
	}
	dst := make([]float32, 4)
	if v := slab.ReadRow(2, dst); v != 0 || dst[0] != 2 {
		t.Fatalf("ReadRow = %d, %v", v, dst)
	}
	slab.ApplyDelta(2, []float32{1, 0, 0, 0}, 0)
	vers := make([]uint64, 1)
	if slab.Versions([]uint64{2}, vers); vers[0] != 1 {
		t.Fatalf("version after ApplyDelta = %d", vers[0])
	}
	slab.ReadRowDirect(2, dst)
	if dst[0] != 3 {
		t.Fatalf("row after ApplyDelta = %v", dst)
	}
}

// TestJobTrainsAgainstSlabOverride runs a real EngineDirect job against
// a TrainSlab and checks it matches the identical job over its own host
// slab — the runtime seam end to end. The external slab is initialised
// with the job's own init so the trajectories are comparable.
func TestJobTrainsAgainstSlabOverride(t *testing.T) {
	const rows, dim, steps = 64, 8, 20

	// Reference: ordinary in-process job.
	ref, err := runtime.NewMicro(runtime.Config{
		Engine: runtime.EngineDirect, Rows: rows, Dim: dim, Seed: 3,
	}, syntheticTrace(rows, steps), steps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	// Override: same config, but the slab is an uncoordinated store
	// seeded with the reference job's initial state. Seed the host by
	// replaying the reference init (same Seed ⇒ same init stream).
	h, err := runtime.NewHost(rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	initJob, err := runtime.NewMicro(runtime.Config{
		Engine: runtime.EngineDirect, Rows: rows, Dim: dim, Seed: 3,
	}, syntheticTrace(rows, steps), steps)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float32, dim)
	h.Init(func(key uint64, dst []float32) {
		initJob.Host().ReadRowLocked(key, row)
		copy(dst, row)
	})
	ls, err := store.NewLocal(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := store.NewTrainSlab(ls)
	if err != nil {
		t.Fatal(err)
	}
	job, err := runtime.NewMicro(runtime.Config{
		Engine: runtime.EngineDirect, Rows: rows, Dim: dim, Seed: 3, Slab: slab,
	}, syntheticTrace(rows, steps), steps)
	if err != nil {
		t.Fatal(err)
	}
	if job.Host() != nil {
		t.Fatal("slab-override job still owns a host")
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps {
		t.Fatalf("completed %d steps, want %d", res.Steps, steps)
	}

	// Same trace, same init, same optimizer ⇒ identical parameters.
	want := make([]float32, dim)
	got := make([]float32, dim)
	for k := uint64(0); k < rows; k++ {
		ref.Host().ReadRowLocked(k, want)
		h.ReadRowLocked(k, got)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("key %d dim %d: %v (host) vs %v (slab override)", k, j, want[j], got[j])
			}
		}
	}
}

// TestSlabOverrideRejectsAdagrad pins the validation: the accumulator
// lives in host memory, so Adagrad cannot ride an external slab.
func TestSlabOverrideRejectsAdagrad(t *testing.T) {
	h := newHost(t, 16, 4)
	ls, _ := store.NewLocal(h, nil)
	slab, _ := store.NewTrainSlab(ls)
	_, err := runtime.NewMicro(runtime.Config{
		Engine: runtime.EngineDirect, Rows: 16, Dim: 4,
		Optimizer: runtime.OptAdagrad, Slab: slab,
	}, syntheticTrace(16, 4), 4)
	if err == nil || !strings.Contains(err.Error(), "Adagrad") {
		t.Fatalf("Adagrad over external slab = %v, want rejection", err)
	}

	// Shape mismatch is rejected too.
	_, err = runtime.NewMicro(runtime.Config{
		Engine: runtime.EngineDirect, Rows: 32, Dim: 4, Slab: slab,
	}, syntheticTrace(32, 4), 4)
	if err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape mismatch = %v, want rejection", err)
	}
}

// syntheticTrace is a minimal KeyTrace: `steps` rounds over the whole
// key space in order.
func syntheticTrace(rows int64, steps int64) runtime.KeyTrace {
	return &fullSweepTrace{rows: rows, steps: steps}
}

type fullSweepTrace struct {
	rows, steps, next int64
}

func (tr *fullSweepTrace) Next() ([]uint64, bool) {
	if tr.next >= tr.steps {
		return nil, false
	}
	tr.next++
	keys := make([]uint64, tr.rows)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys, true
}

func (tr *fullSweepTrace) Steps() int64 { return tr.steps }
func (tr *fullSweepTrace) Batch() int   { return int(tr.rows) }
