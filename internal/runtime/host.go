// Package runtime is Frugal's real concurrent training runtime: one
// goroutine per simulated GPU, a shared host-memory parameter slab, the
// P²F controller with its flusher pool, and per-GPU embedding caches. It
// trains real models (internal/model) on real traces (internal/data) with
// genuine concurrency — the consistency guarantees of §3.3 are enforced
// (and race-detectable) here, while wall-clock performance figures come
// from internal/sim.
//
// Three engines are implemented:
//
//   - EngineFrugal: the paper's system — sharded per-GPU caches, UVA-style
//     direct host reads, updates committed through the P²F controller and
//     flushed to host memory by background threads in priority order.
//   - EngineFrugalSync: the Frugal-Sync baseline of §4 — same data path
//     but a write-through policy that applies every update to host memory
//     synchronously at commit time.
//   - EngineDirect: the PyTorch baseline — no caches; reads and writes go
//     straight to host memory.
package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"frugal/internal/pq"
	"frugal/internal/tensor"
)

// Host is the host-memory side of the two-tier parameter hierarchy
// (§3, Fig 5): the complete set of embedding rows, a per-row version
// counter used for cache-freshness checks, and striped row locks for the
// synchronous write paths.
type Host struct {
	rows     int64
	dim      int
	slab     []float32 // full-precision rows; nil when the cold tier owns storage
	tier     *coldTier // frequency-aware tiered storage (NewTieredHost); nil = all-f32
	state    []float32 // per-row optimizer state (Adagrad accumulator); nil for SGD
	versions []atomic.Uint64
	locks    []sync.Mutex // striped by key
	applied  atomic.Int64 // updates applied (all paths)

	// writeFault, when set, is consulted once per host-write attempt and
	// reports whether that attempt fails transiently (fault injection).
	// The writer retries with exponential backoff; writeRetries counts the
	// retried attempts.
	writeFault   func() bool
	writeRetries atomic.Int64
}

const lockStripes = 1024

// maxSlab bounds a host's rows×dim: 1<<33 float32s is 32 GiB, a sanity
// bound for tests.
const maxSlab = 1 << 33

// checkShape refuses a host shape that is empty or past maxSlab. The
// bound divides rather than multiplies, so no rows×dim can wrap past it.
func checkShape(rows int64, dim int) error {
	if rows <= 0 || dim <= 0 {
		return fmt.Errorf("runtime: invalid host shape rows=%d dim=%d", rows, dim)
	}
	if rows > maxSlab/int64(dim) {
		return fmt.Errorf("runtime: host slab %d×%d exceeds the %d-float bound; use a Scaled() spec", rows, dim, maxSlab)
	}
	return nil
}

// NewHost allocates a zero-initialised host slab for `rows` embeddings of
// dimension dim. Use Init to fill it.
func NewHost(rows int64, dim int) (*Host, error) {
	if err := checkShape(rows, dim); err != nil {
		return nil, err
	}
	return &Host{
		rows:     rows,
		dim:      dim,
		slab:     make([]float32, rows*int64(dim)),
		versions: make([]atomic.Uint64, rows),
		locks:    make([]sync.Mutex, lockStripes),
	}, nil
}

// Rows returns the row count.
func (h *Host) Rows() int64 { return h.rows }

// Dim returns the embedding dimension.
func (h *Host) Dim() int { return h.dim }

// Init fills every row using fill(key, row) — e.g. Xavier initialisation.
// On a tiered host the fill lands in each row's tier (cold rows are
// quantized immediately); Init is single-threaded, called before traffic.
func (h *Host) Init(fill func(key uint64, row []float32)) {
	if t := h.tier; t != nil {
		scratch := make([]float32, h.dim)
		for k := int64(0); k < h.rows; k++ {
			fill(uint64(k), scratch)
			t.writeRow(uint64(k), scratch)
		}
		return
	}
	for k := int64(0); k < h.rows; k++ {
		fill(uint64(k), h.row(uint64(k)))
	}
}

func (h *Host) row(key uint64) []float32 {
	i := int64(key) * int64(h.dim)
	return h.slab[i : i+int64(h.dim)]
}

func (h *Host) lock(key uint64) *sync.Mutex { return &h.locks[key%lockStripes] }

// ReadRowDirect copies row `key` into dst — the UVA zero-copy gather of
// §3.1. Safe without locking only when the caller holds the P²F gate
// guarantee (no pending writes for this key); every other reader uses
// ReadRow. On a tiered host the read takes the stripe lock anyway: the
// gate covers flusher writes, but a demotion can rewrite any row's
// authoritative bytes at a flush boundary, so lock-free reads are only
// sound when storage never moves.
func (h *Host) ReadRowDirect(key uint64, dst []float32) {
	if t := h.tier; t != nil {
		l := h.lock(key)
		l.Lock()
		t.readRow(key, dst)
		l.Unlock()
		return
	}
	tensor.Copy(dst, h.row(key))
}

// ReadRow copies row `key` into dst under the row lock and returns the
// row version observed with the copy. This is the allocation-free serve
// read primitive: the version is read inside the same critical section as
// the copy, so it identifies exactly the state dst holds (versions only
// grow — one increment per applied update).
func (h *Host) ReadRow(key uint64, dst []float32) uint64 {
	l := h.lock(key)
	l.Lock()
	if t := h.tier; t != nil {
		t.readRow(key, dst)
	} else {
		tensor.Copy(dst, h.row(key))
	}
	v := h.versions[key].Load()
	l.Unlock()
	return v
}

// ReadRowLocked copies row `key` into dst under the row lock.
func (h *Host) ReadRowLocked(key uint64, dst []float32) {
	h.ReadRow(key, dst)
}

// Version returns the row's update counter.
func (h *Host) Version(key uint64) uint64 { return h.versions[key].Load() }

// SetRow replaces row `key` with a full row image at the given version —
// the replica apply path, where updates arrive as recorded row states
// rather than deltas. The write is skipped when the stored version is
// already past `version` (a late or duplicate log record: newer content
// wins); replaying records in log order is therefore idempotent. state
// replaces the optimizer accumulator when one is enabled.
func (h *Host) SetRow(key uint64, row []float32, version uint64, state float32) {
	l := h.lock(key)
	l.Lock()
	if h.versions[key].Load() <= version {
		if t := h.tier; t != nil {
			t.writeRow(key, row)
		} else {
			tensor.Copy(h.row(key), row)
		}
		if h.state != nil {
			h.state[key] = state
		}
		h.versions[key].Store(version)
	}
	l.Unlock()
}

// SetVersion restores a row's version counter — replica bootstrap only
// (a compacted base carries its version vector in a sidecar; the slab
// codec itself never persists versions). Call before serving starts.
func (h *Host) SetVersion(key uint64, v uint64) { h.versions[key].Store(v) }

// HasOptState reports whether the optimizer-state slab is enabled.
func (h *Host) HasOptState() bool { return h.state != nil }

// EnableOptimizerState allocates the per-row optimizer accumulator slab
// (row-wise Adagrad). Must be called before training starts.
func (h *Host) EnableOptimizerState() {
	if h.state == nil {
		h.state = make([]float32, h.rows)
	}
}

// OptState returns the row's optimizer accumulator. Like ReadRow, it is
// safe without locking only under the gate's no-pending-writes guarantee.
func (h *Host) OptState(key uint64) float32 {
	if h.state == nil {
		return 0
	}
	return h.state[key]
}

// SetWriteFault installs the transient host-write fault hook. Must be
// called before training starts (the field is read without a lock).
func (h *Host) SetWriteFault(hook func() bool) { h.writeFault = hook }

// WriteRetries reports how many host-write attempts failed transiently
// and were retried.
func (h *Host) WriteRetries() int64 { return h.writeRetries.Load() }

// admitWrite blocks until the injected transient write fault (if any)
// clears, backing off exponentially between retries. Called before the
// row lock so a failing writer never stalls other keys in its stripe.
func (h *Host) admitWrite() {
	if h.writeFault == nil {
		return
	}
	backoff := time.Microsecond
	for h.writeFault() {
		h.writeRetries.Add(1)
		time.Sleep(backoff)
		if backoff < 512*time.Microsecond {
			backoff *= 2
		}
	}
}

// ApplyDelta adds delta into row `key` (and stateDelta into its optimizer
// accumulator) under the row lock and bumps the version — used by flusher
// sinks and the write-through engines.
func (h *Host) ApplyDelta(key uint64, delta []float32, stateDelta float32) {
	h.admitWrite()
	l := h.lock(key)
	l.Lock()
	if t := h.tier; t != nil {
		row, cold := t.mutableRow(key)
		tensor.Axpy(1, delta, row)
		t.commitRow(key, row, cold)
	} else {
		tensor.Axpy(1, delta, h.row(key))
	}
	if h.state != nil {
		h.state[key] += stateDelta
	}
	h.versions[key].Add(1)
	l.Unlock()
	h.applied.Add(1)
	// Write-through engines have no flush boundary of their own: the
	// commit IS the flush, so tier maintenance rides it here.
	h.TierMaintain(key, false)
}

// ApplyUpdates applies a g-entry's whole write set to one row under a
// single lock acquisition (the flusher path).
func (h *Host) ApplyUpdates(key uint64, updates []pq.Update) {
	if len(updates) == 0 {
		return
	}
	h.admitWrite()
	l := h.lock(key)
	l.Lock()
	var row []float32
	var cold bool
	if t := h.tier; t != nil {
		row, cold = t.mutableRow(key)
	} else {
		row = h.row(key)
	}
	for _, u := range updates {
		tensor.Axpy(1, u.Delta, row)
		if h.state != nil {
			h.state[key] += u.StateDelta
		}
	}
	if t := h.tier; t != nil {
		t.commitRow(key, row, cold)
	}
	h.versions[key].Add(uint64(len(updates)))
	l.Unlock()
	h.applied.Add(int64(len(updates)))
}

// Applied returns the total number of updates applied to the slab.
func (h *Host) Applied() int64 { return h.applied.Load() }

// Snapshot copies row `key` (test helper).
func (h *Host) Snapshot(key uint64) []float32 {
	out := make([]float32, h.dim)
	h.ReadRow(key, out)
	return out
}

// ReadRows copies the n = len(dst)/Dim() consecutive rows starting at
// `from` into dst, each row under its stripe lock — the block-iteration
// primitive index build and repair use to walk a live slab. Row copies
// are individually consistent (never half an update) but the block as a
// whole is not a point-in-time snapshot; writers that land mid-walk are
// reconciled by the index's flush-repair queue. Panics if dst is not a
// whole number of rows or the range exceeds the slab.
func (h *Host) ReadRows(from int64, dst []float32) {
	d := h.dim
	if len(dst)%d != 0 {
		panic(fmt.Sprintf("runtime: ReadRows dst %d not a multiple of dim %d", len(dst), d))
	}
	n := int64(len(dst) / d)
	if from < 0 || from+n > h.rows {
		panic(fmt.Sprintf("runtime: ReadRows range [%d,%d) outside %d rows", from, from+n, h.rows))
	}
	for i := int64(0); i < n; i++ {
		key := uint64(from + i)
		l := h.lock(key)
		l.Lock()
		if t := h.tier; t != nil {
			t.readRow(key, dst[i*int64(d):(i+1)*int64(d)])
		} else {
			tensor.Copy(dst[i*int64(d):(i+1)*int64(d)], h.row(key))
		}
		l.Unlock()
	}
}

// ScoreRows computes out[i] = query · row(from+i) for len(out) consecutive
// rows in one batched matrix-vector kernel over the contiguous slab. It
// takes no locks: callers must guarantee the range is quiescent (a loaded
// checkpoint, or a finished job). Live serving uses ScoreRowsLocked.
func (h *Host) ScoreRows(query []float32, from int64, out []float32) {
	if t := h.tier; t != nil {
		// No contiguous f32 slab to hand the batched kernel: score per
		// row, cold rows through the quantized dot (no materialization).
		for i := range out {
			out[i] = t.score(query, uint64(from+int64(i)))
		}
		return
	}
	d := int64(h.dim)
	m := tensor.Matrix{Rows: len(out), Cols: h.dim, Data: h.slab[from*d : (from+int64(len(out)))*d]}
	m.MulVec(query, out)
}

// ScoreRowsLocked is ScoreRows for a slab with live writers: each row is
// scored under its stripe lock, so a score never mixes halves of two
// updates (the same isolation the flusher write path provides).
func (h *Host) ScoreRowsLocked(query []float32, from int64, out []float32) {
	t := h.tier
	for i := range out {
		key := uint64(from + int64(i))
		l := h.lock(key)
		l.Lock()
		if t != nil {
			out[i] = t.score(query, key)
		} else {
			out[i] = tensor.Dot(query, h.row(key))
		}
		l.Unlock()
	}
}
