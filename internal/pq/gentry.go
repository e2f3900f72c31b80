// Package pq implements the priority-queue layer of Frugal's P²F
// algorithm (§3.3-3.4): the per-parameter g-entry metadata, the customised
// two-level concurrent priority queue, and the TreeHeap baseline it is
// evaluated against in Exp #4.
//
// Priorities are training-step numbers: a numerically smaller priority
// must be flushed earlier. Inf marks entries that nothing is waiting for
// (Equation (1): priority = min(R set) when the write set is non-empty,
// and ∞ when the read set or the write set is empty).
package pq

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Inf is the priority of a g-entry no upcoming step will read
// (or that has nothing pending to flush).
const Inf int64 = math.MaxInt64

// Update is one pending parameter update: the step that produced it, the
// delta to apply to the host-memory row, and the increment for the row's
// optimizer state (0 for plain SGD; the squared-gradient accumulator
// increment for row-wise Adagrad). Carrying the state increment with the
// update lets the flushing threads apply the optimizer on host memory —
// exactly where Frugal's write path lands.
type Update struct {
	Step       int64
	Delta      []float32
	StateDelta float32
}

// GEntry is the metadata Frugal keeps per parameter (§3.3): the key, the
// read set R (future steps that will access the parameter), the write set W
// (pending updates not yet flushed to host memory), and the cached priority.
//
// All fields are guarded by Mu. The queue implementations never mutate a
// g-entry; the P²F controller locks the entry, updates R/W, recomputes the
// priority, and tells the queue how the priority moved.
type GEntry struct {
	Key uint64

	Mu sync.Mutex
	// R is the read set: step numbers at which the parameter will soon be
	// accessed, ascending order maintained by AddRead.
	R []int64
	// W is the write set: pending updates in step order.
	W []Update
	// Priority caches Equation (1) over the current R/W.
	Priority int64
	// InQueue reports whether the entry currently lives in the priority
	// queue (i.e. it has a non-empty write set).
	InQueue bool
	// InFlight is non-nil while a flusher has taken a write set of this
	// entry out of the queue and not yet applied it: it points at that
	// flusher's in-flight floor, which the consistency gate reads beside
	// Top(). InFlightStep is the oldest step of the in-flight set.
	InFlight     *atomic.Int64
	InFlightStep int64
}

// WriteSet is one key's drained write set, in step order, as a batched
// flush hands it to its sink. Deferred reports that it was drained from
// the ∞ slot (no reader waiting inside the lookahead window).
type WriteSet struct {
	Key      uint64
	Updates  []Update
	Deferred bool
}

// NewGEntry returns a g-entry for key with empty R/W sets and priority ∞.
func NewGEntry(key uint64) *GEntry {
	return &GEntry{Key: key, Priority: Inf}
}

// ComputePriority evaluates Equation (1) on the entry's current sets.
// Callers must hold Mu.
func (g *GEntry) ComputePriority() int64 {
	if len(g.W) == 0 || len(g.R) == 0 {
		return Inf
	}
	return g.R[0]
}

// AddRead inserts step into the read set, keeping it sorted.
// Callers must hold Mu.
func (g *GEntry) AddRead(step int64) {
	i := len(g.R)
	for i > 0 && g.R[i-1] > step {
		i--
	}
	if i > 0 && g.R[i-1] == step {
		return // idempotent: the same step may prefetch a key twice
	}
	g.R = append(g.R, 0)
	copy(g.R[i+1:], g.R[i:])
	g.R[i] = step
}

// RemoveRead deletes step from the read set and reports whether it was
// present. Callers must hold Mu.
func (g *GEntry) RemoveRead(step int64) bool {
	for i, s := range g.R {
		if s == step {
			g.R = append(g.R[:i], g.R[i+1:]...)
			return true
		}
		if s > step {
			break
		}
	}
	return false
}

// AddWriteState appends a pending update carrying an optimizer-state
// increment. Callers must hold Mu.
func (g *GEntry) AddWriteState(step int64, delta []float32, stateDelta float32) {
	g.W = append(g.W, Update{Step: step, Delta: delta, StateDelta: stateDelta})
}

// TakeWrites removes and returns all pending updates. Callers must hold Mu.
func (g *GEntry) TakeWrites() []Update {
	w := g.W
	g.W = nil
	return w
}

// FlushedWrites hands the storage of a flushed write set back to the entry
// so future AddWriteState calls reuse its capacity instead of growing a fresh
// slice from nil. Callers must hold Mu and must be done with w's
// elements — the delta buffers they reference have been applied and
// returned to their pool. A write set started since the TakeWrites that
// produced w is kept as it is.
func (g *GEntry) FlushedWrites(w []Update) {
	if g.W != nil {
		return // defensive: a new write set already exists
	}
	g.W = w[:0]
}

// String renders the entry for debugging, e.g. "g{k=3 R=[1 2] |W|=1 p=1}".
func (g *GEntry) String() string {
	p := "inf"
	if g.Priority != Inf {
		p = fmt.Sprint(g.Priority)
	}
	return fmt.Sprintf("g{k=%d R=%v |W|=%d p=%s}", g.Key, g.R, len(g.W), p)
}

// Queue is the priority-queue contract shared by the two-level PQ and the
// TreeHeap baseline. All methods are safe for concurrent use.
//
// The contract mirrors §3.4: Enqueue inserts a g-entry under a priority,
// AdjustPriority moves an already-queued entry, ProcessBatch is the
// batched dequeue the flushers drain (Fig 7) and the only way out of the
// queue, and Top exposes the front priority for the consistency gate
// (training step s may start only when Top() > s).
type Queue interface {
	// Enqueue inserts g under priority p.
	Enqueue(g *GEntry, p int64)
	// AdjustPriority moves g from priority old to priority new.
	AdjustPriority(g *GEntry, old, new int64)
	// ProcessBatch visits up to max minimum-priority entries, calling fn
	// on each BEFORE the entry loses queue visibility, so that Top()
	// keeps gating trainers until fn (the flush) has completed. The
	// queue acquires g.Mu around each fn invocation; fn must validate
	// that g still belongs to slotPriority (g.InQueue && g.Priority ==
	// slotPriority), claim it by clearing g.InQueue, and report whether
	// it did (false culls a stale residue). fn must be idempotent —
	// concurrent processors may visit the same node twice. Returns the
	// number of nodes processed, which under concurrency is not the
	// number fn claimed: another processor may unlink a node this call
	// claimed, and this call then goes on past max claims. Callers count
	// their claims in fn.
	ProcessBatch(max int, fn func(g *GEntry, slotPriority int64) bool) int
	// Top returns the priority at the front of the queue (Inf when empty:
	// an empty queue never blocks training).
	Top() int64
	// Len returns the (approximate under concurrency) number of entries.
	Len() int
}
