package store

import (
	"fmt"
	"sync"

	"frugal/internal/pq"
	"frugal/internal/runtime"
)

// TrainSlab adapts a Store to runtime.RowStore, so a training job can run
// its step loop against a parameter table that lives elsewhere — most
// usefully a ShardedStore over uncoordinated frugal-shard nodes, which
// makes the store tier the disaggregated host memory of the paper's
// design. Set it as Config.Slab (or TrainOptions.Slab on the public
// surface).
//
// The store must be uncoordinated: the step loop's write path is
// write-through (every write applies immediately), and routing it through
// a store-side P²F gate would double-coordinate every commit.
//
// The step loop drives the batch methods, so on a sharded remote store a
// worker-step costs one Versions frame (the cache's version probe) and
// one Gather frame (misses and foreign keys) per shard, and each flusher
// batch one Scatter frame per shard. The per-row methods map to
// single-key round trips; only the prefetcher still uses them.
//
// RowStore's read/write surface carries no errors (host memory cannot
// fail), so store errors — an unreachable shard mid-step, an unowned
// key — are surfaced by panicking. A training loop cannot make progress
// against a broken slab, and the job's panic unwinds the run loudly
// instead of training on garbage.
type TrainSlab struct {
	st Store
	// scratch recycles the contiguous row buffer of GatherRows and the
	// update list of the writes across calls (*slabScratch).
	scratch sync.Pool
}

// slabScratch is one call's pooled working set.
type slabScratch struct {
	rows []float32
	kd   []KeyDelta
}

var _ runtime.RowStore = (*TrainSlab)(nil)

// NewTrainSlab wraps st. It refuses coordinated stores — the training
// gate and the store gate would fight over commit semantics.
func NewTrainSlab(st Store) (*TrainSlab, error) {
	if st.Coordinated() {
		return nil, fmt.Errorf("store: TrainSlab requires an uncoordinated store (write-through)")
	}
	return &TrainSlab{st: st}, nil
}

// Store returns the wrapped store.
func (t *TrainSlab) Store() Store { return t.st }

// Rows returns the global table height.
func (t *TrainSlab) Rows() int64 { return t.st.Rows() }

// Dim returns the embedding dimension.
func (t *TrainSlab) Dim() int { return t.st.Dim() }

// ReadRow reads one row and returns its version.
func (t *TrainSlab) ReadRow(key uint64, dst []float32) uint64 {
	v, err := t.st.ReadRow(key, dst)
	if err != nil {
		panic(fmt.Sprintf("store: slab read of key %d failed: %v", key, err))
	}
	return v
}

// ReadRowDirect reads one row. The underlying store decides its own
// locking; the gate-protection contract of the host fast path does not
// apply across a wire.
func (t *TrainSlab) ReadRowDirect(key uint64, dst []float32) { t.ReadRow(key, dst) }

// ReadRowLocked reads one row (stores serialise their own writes).
func (t *TrainSlab) ReadRowLocked(key uint64, dst []float32) { t.ReadRow(key, dst) }

// GatherRows reads every key with one store Gather and copies the rows
// out to dsts. Direct and locked reads are the same call.
func (t *TrainSlab) GatherRows(keys []uint64, dsts [][]float32, _ bool) {
	if len(keys) == 0 {
		return
	}
	d := t.st.Dim()
	sc := t.get()
	defer t.scratch.Put(sc)
	if cap(sc.rows) < len(keys)*d {
		sc.rows = make([]float32, len(keys)*d)
	}
	buf := sc.rows[:len(keys)*d]
	if err := t.st.Gather(keys, buf, nil); err != nil {
		panic(fmt.Sprintf("store: slab gather of %d keys failed: %v", len(keys), err))
	}
	for i := range keys {
		copy(dsts[i], buf[i*d:(i+1)*d])
	}
}

// Version returns the row's update counter.
func (t *TrainSlab) Version(key uint64) uint64 {
	v, err := t.st.Version(key)
	if err != nil {
		panic(fmt.Sprintf("store: slab version of key %d failed: %v", key, err))
	}
	return v
}

// Versions reads every key's update counter with one store Versions.
func (t *TrainSlab) Versions(keys []uint64, out []uint64) {
	if len(keys) == 0 {
		return
	}
	if err := t.st.Versions(keys, out[:len(keys)]); err != nil {
		panic(fmt.Sprintf("store: slab versions of %d keys failed: %v", len(keys), err))
	}
}

// OptState returns 0: the Store surface carries no optimizer accumulator,
// which is why jobs reject OptAdagrad under a slab override.
func (t *TrainSlab) OptState(uint64) float32 { return 0 }

// ApplyDelta writes one key's delta through as a single-update scatter.
func (t *TrainSlab) ApplyDelta(key uint64, delta []float32, stateDelta float32) {
	err := t.st.Scatter(0, []KeyDelta{{Key: key, Delta: delta, StateDelta: stateDelta}})
	if err != nil {
		panic(fmt.Sprintf("store: slab write of key %d failed: %v", key, err))
	}
}

// ApplyUpdates writes one key's update batch through as one scatter,
// bumping the version once per update like the host slab does.
func (t *TrainSlab) ApplyUpdates(key uint64, updates []pq.Update) {
	sc := t.get()
	defer t.put(sc)
	for _, u := range updates {
		sc.kd = append(sc.kd, KeyDelta{Key: key, Delta: u.Delta, StateDelta: u.StateDelta})
	}
	t.scatter(sc.kd)
}

// ApplyWriteSets writes a flusher batch through as one scatter — one
// frame per shard on a sharded store. Sets of one key keep their order,
// and so do their updates.
func (t *TrainSlab) ApplyWriteSets(sets []pq.WriteSet) {
	sc := t.get()
	defer t.put(sc)
	for i := range sets {
		for _, u := range sets[i].Updates {
			sc.kd = append(sc.kd, KeyDelta{Key: sets[i].Key, Delta: u.Delta, StateDelta: u.StateDelta})
		}
	}
	t.scatter(sc.kd)
}

// scatter writes kd through, panicking on a store error.
func (t *TrainSlab) scatter(kd []KeyDelta) {
	if len(kd) == 0 {
		return
	}
	if err := t.st.Scatter(0, kd); err != nil {
		panic(fmt.Sprintf("store: slab write of %d updates (first key %d) failed: %v", len(kd), kd[0].Key, err))
	}
}

func (t *TrainSlab) get() *slabScratch {
	sc, _ := t.scratch.Get().(*slabScratch)
	if sc == nil {
		sc = &slabScratch{}
	}
	return sc
}

// put pools sc after dropping its references to the caller's deltas.
func (t *TrainSlab) put(sc *slabScratch) {
	clear(sc.kd)
	sc.kd = sc.kd[:0]
	t.scratch.Put(sc)
}

// WriteRetries reports 0: fault injection lives in the host slab.
func (t *TrainSlab) WriteRetries() int64 { return 0 }
