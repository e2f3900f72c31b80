package pq

import (
	"runtime"
	"sync/atomic"

	"frugal/internal/obs"
)

// spinLock is a test-and-set spin lock with passive back-off — the locking
// primitive the paper's TreeHeap baseline uses around heap nodes. We apply
// it at heap granularity: a classic binary min-heap must keep its array and
// its key→position index mutually consistent during sift-up/down and
// adjust-priority, so every operation serialises on the near-root region
// anyway; a single spin lock is the limiting behaviour of that contention
// (this substitution is recorded in DESIGN.md). What Exp #4 measures —
// O(log N) operations that serialise, versus the two-level PQ's scalable
// O(1) operations — is preserved.
type spinLock struct{ v atomic.Int32 }

func (l *spinLock) Lock() {
	for !l.v.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

func (l *spinLock) Unlock() { l.v.Store(0) }

type heapItem struct {
	g *GEntry
	p int64
}

// TreeHeap is the baseline concurrent priority queue of Exp #4: a binary
// tree min-heap ordered by priority, with a position index so that
// AdjustPriority can locate an entry in O(1) before an O(log N) fix-up.
type TreeHeap struct {
	lock  spinLock
	items []heapItem
	pos   map[uint64]int // key → index in items
	o     *obs.PQObs     // operation counters (nil = off)
}

// SetObserver attaches an observability sink (nil detaches). Call before
// the queue sees traffic.
func (h *TreeHeap) SetObserver(o *obs.PQObs) { h.o = o }

// NewTreeHeap returns an empty heap sized for `hint` entries.
func NewTreeHeap(hint int) *TreeHeap {
	if hint < 0 {
		hint = 0
	}
	return &TreeHeap{
		items: make([]heapItem, 0, hint),
		pos:   make(map[uint64]int, hint),
	}
}

// Enqueue inserts g under priority p. The caller must hold g.Mu (same
// contract as TwoLevelPQ so the two are interchangeable behind Queue).
func (h *TreeHeap) Enqueue(g *GEntry, p int64) {
	g.Priority = p
	g.InQueue = true
	h.lock.Lock()
	h.items = append(h.items, heapItem{g: g, p: p})
	i := len(h.items) - 1
	h.pos[g.Key] = i
	h.siftUp(i)
	h.lock.Unlock()
	h.o.Enqueue(g.Key)
}

// ProcessBatch visits up to max minimum-priority entries, calling fn on
// each before removing it from the heap. The heap lock is held across fn,
// so Top() (and every other operation) blocks until the flush completes —
// the coarse-grained equivalent of the two-level PQ's visible-until-
// flushed protocol, and a cost the Exp #4 comparison charges to TreeHeap.
func (h *TreeHeap) ProcessBatch(max int, fn func(g *GEntry, slotPriority int64) bool) int {
	processed := 0
	for processed < max {
		h.lock.Lock()
		if len(h.items) == 0 {
			h.lock.Unlock()
			return processed
		}
		top := h.items[0]
		if !top.g.Mu.TryLock() {
			// The controller holds this entry; retry with locks dropped
			// (taking g.Mu outright here would deadlock against
			// Enqueue/AdjustPriority callers, which lock g.Mu first).
			h.lock.Unlock()
			runtime.Gosched()
			continue
		}
		fn(top.g, top.p)
		h.removeAt(0)
		top.g.Mu.Unlock()
		h.lock.Unlock()
		h.o.Dequeue(top.g.Key)
		processed++
	}
	return processed
}

// AdjustPriority moves g from priority old to new. The caller must hold
// g.Mu.
func (h *TreeHeap) AdjustPriority(g *GEntry, old, new int64) {
	if old == new {
		return
	}
	g.Priority = new
	h.lock.Lock()
	i, ok := h.pos[g.Key]
	if !ok {
		h.lock.Unlock()
		return
	}
	h.items[i].p = new
	if new < old {
		h.siftUp(i)
	} else {
		h.siftDown(i)
	}
	h.lock.Unlock()
	h.o.Adjust(g.Key)
}

// Top returns the minimum priority in the heap, or Inf when empty.
func (h *TreeHeap) Top() int64 {
	h.lock.Lock()
	defer h.lock.Unlock()
	if len(h.items) == 0 {
		return Inf
	}
	return h.items[0].p
}

// Len returns the number of entries.
func (h *TreeHeap) Len() int {
	h.lock.Lock()
	defer h.lock.Unlock()
	return len(h.items)
}

// removeAt deletes the item at index i, maintaining the heap. Lock held.
func (h *TreeHeap) removeAt(i int) {
	last := len(h.items) - 1
	delete(h.pos, h.items[i].g.Key)
	if i != last {
		h.items[i] = h.items[last]
		h.pos[h.items[i].g.Key] = i
	}
	h.items = h.items[:last]
	if i < len(h.items) {
		h.siftDown(i)
		h.siftUp(i)
	}
}

func (h *TreeHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].p <= h.items[i].p {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *TreeHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		small := i
		if left < n && h.items[left].p < h.items[small].p {
			small = left
		}
		if right < n && h.items[right].p < h.items[small].p {
			small = right
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *TreeHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].g.Key] = i
	h.pos[h.items[j].g.Key] = j
}

var _ Queue = (*TreeHeap)(nil)
