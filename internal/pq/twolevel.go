package pq

import (
	"fmt"
	"sync/atomic"

	"frugal/internal/lfht"
	"frugal/internal/obs"
)

// TwoLevelPQ is Frugal's customised concurrent priority queue (§3.4,
// Fig 7). Level one is a priority index: an array with one slot per
// possible priority value (0 … maxStep, plus one slot for ∞). Each slot
// points to a lock-free hash table holding the g-entries that currently
// carry that priority. All operations are O(1):
//
//   - Enqueue inserts into the slot table for the entry's priority.
//   - AdjustPriority inserts into the new slot first and then deletes from
//     the old one; the flusher's claim detects the transient duplicate by
//     comparing the entry's current priority with the slot it was found in.
//   - Top and ProcessBatch share one scan (scan) for the first non-empty
//     slot. With scan-range compression (on by default) it is restricted
//     to [lower bound, upper bound] ∪ {∞}, where the gate raises the lower
//     bound past each step it opens (RaiseLowerBound) and the upper bound
//     tracks the largest finite priority ever enqueued (≤ current step +
//     lookahead L).
//
// ProcessBatch is the only way out of the queue: it hands each entry to
// the caller's claim while the entry is still visible to Top.
//
// Locking protocol: Enqueue and AdjustPriority require the caller to hold
// g.Mu across the call; this makes the entry's Priority field and its slot
// membership change atomically with respect to ProcessBatch, which
// validates under the same lock. ProcessBatch and Top take no caller
// locks.
type TwoLevelPQ struct {
	maxStep int64
	slots   []atomic.Pointer[lfht.Map[*GEntry]]

	count atomic.Int64
	// finite counts live finite-priority entries. It is incremented
	// *before* an entry becomes visible in a finite slot and decremented
	// only after it is claimed (or moved to ∞), so a zero reading proves no
	// finite entry can be hiding below the compressed scan range — the
	// guard that keeps scan's self-healing fallback off the common
	// only-deferred-work path.
	finite atomic.Int64

	// Scan-range compression state (§3.4 optimisation).
	compress bool
	lower    atomic.Int64 // smallest slot a finite-priority entry may occupy
	upper    atomic.Int64 // largest finite priority ever enqueued

	// o mirrors operation counts into the observability layer (nil = off).
	o *obs.PQObs
}

// TwoLevelOptions configures a TwoLevelPQ.
type TwoLevelOptions struct {
	// MaxStep is the largest finite priority value (the number of training
	// steps); the priority index has MaxStep+2 slots.
	MaxStep int64
	// DisableScanCompression turns the §3.4 scan-range optimisation off
	// (used by the ablation benchmark).
	DisableScanCompression bool
}

// NewTwoLevelPQ builds an empty queue for priorities in [0, MaxStep] ∪ {∞}.
func NewTwoLevelPQ(opt TwoLevelOptions) (*TwoLevelPQ, error) {
	if opt.MaxStep < 0 {
		return nil, fmt.Errorf("pq: negative MaxStep %d", opt.MaxStep)
	}
	if opt.MaxStep > 1<<26 {
		return nil, fmt.Errorf("pq: MaxStep %d too large for a dense priority index", opt.MaxStep)
	}
	q := &TwoLevelPQ{
		maxStep:  opt.MaxStep,
		slots:    make([]atomic.Pointer[lfht.Map[*GEntry]], opt.MaxStep+2),
		compress: !opt.DisableScanCompression,
	}
	q.upper.Store(-1)
	return q, nil
}

// MustTwoLevelPQ is NewTwoLevelPQ for configurations that cannot fail.
func MustTwoLevelPQ(opt TwoLevelOptions) *TwoLevelPQ {
	q, err := NewTwoLevelPQ(opt)
	if err != nil {
		panic(err)
	}
	return q
}

// SetObserver attaches an observability sink (nil detaches). Call before
// the queue sees traffic.
func (q *TwoLevelPQ) SetObserver(o *obs.PQObs) { q.o = o }

// slotIndex maps a priority to its index in the priority index array.
func (q *TwoLevelPQ) slotIndex(p int64) int64 {
	if p == Inf {
		return q.maxStep + 1
	}
	if p < 0 || p > q.maxStep {
		panic(fmt.Sprintf("pq: priority %d outside [0,%d]∪{∞}", p, q.maxStep))
	}
	return p
}

// Slot tables are sized by what they hold. A finite slot holds only the
// g-entries whose next read is that one step, so at most one global
// batch: it gets a 64-segment directory, because a larger one only makes
// each drain scan empty segment heads. The ∞ slot holds all deferred
// work and gets 1,024 segments, so AdjustPriority's Delete walks short
// chains there.
const (
	finiteSlotHint = 256
	infSlotHint    = 4096
)

// table returns the hash table for a slot, creating it on first use.
func (q *TwoLevelPQ) table(idx int64) *lfht.Map[*GEntry] {
	if t := q.slots[idx].Load(); t != nil {
		return t
	}
	hint := finiteSlotHint
	if idx == q.maxStep+1 {
		hint = infSlotHint
	}
	fresh := lfht.NewWithHint[*GEntry](hint)
	if q.slots[idx].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return q.slots[idx].Load()
}

// peek returns the slot's table without creating it.
func (q *TwoLevelPQ) peek(idx int64) *lfht.Map[*GEntry] {
	return q.slots[idx].Load()
}

// casMin lowers v to x if x is smaller.
func casMin(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// casMax raises v to x if x is larger.
func casMax(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x <= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// Enqueue inserts g under priority p. The caller must hold g.Mu; Enqueue
// sets g.Priority and g.InQueue itself so that slot membership and entry
// state change atomically with respect to dequeuers.
func (q *TwoLevelPQ) Enqueue(g *GEntry, p int64) {
	idx := q.slotIndex(p)
	g.Priority = p
	g.InQueue = true
	if p != Inf {
		q.finite.Add(1)
	}
	q.table(idx).Insert(g.Key, g)
	q.count.Add(1)
	q.o.Enqueue(g.Key)
	if p != Inf {
		casMin(&q.lower, p)
		casMax(&q.upper, p)
	}
}

// AdjustPriority moves g from priority old to new. The caller must hold
// g.Mu. Following §3.4, the entry is inserted into the new slot *before*
// being deleted from the old one so a concurrent dequeuer always finds at
// least one live node; the transient duplicate is culled by validation.
func (q *TwoLevelPQ) AdjustPriority(g *GEntry, old, new int64) {
	if old == new {
		return
	}
	oldIdx, newIdx := q.slotIndex(old), q.slotIndex(new)
	if new != Inf && old == Inf {
		q.finite.Add(1)
	}
	q.table(newIdx).Insert(g.Key, g)
	g.Priority = new
	q.table(oldIdx).Delete(g.Key)
	if new == Inf && old != Inf {
		q.finite.Add(-1)
	}
	q.o.Adjust(g.Key)
	if new != Inf {
		casMin(&q.lower, new)
		casMax(&q.upper, new)
	}
}

// scanBounds returns the inclusive range of finite slots a scan must
// cover.
func (q *TwoLevelPQ) scanBounds() (lo, hi int64) {
	if q.compress {
		lo, hi = q.lower.Load(), q.upper.Load()
		if lo < 0 {
			lo = 0
		}
		if hi > q.maxStep {
			hi = q.maxStep
		}
		return lo, hi
	}
	return 0, q.maxStep
}

// scan is the one walk of the priority index behind Top and ProcessBatch:
// it calls visit on each non-empty slot in priority order — the finite
// slots of the scan range, then ∞ — until visit returns false.
//
// The compressed scan range is a performance hint, not a correctness
// invariant: an Enqueue below the lower bound can race with a
// RaiseLowerBound and leave a live entry beneath [lo, hi]. When the range
// holds no non-empty slot while finite entries remain, scan self-heals
// before it reaches ∞: it rescans the full finite index and lowers the
// bound to the first slot it finds occupied. The guard is the live finite
// count rather than the total count, so the common only-deferred-work
// state — everything at ∞ — never pays a full-index scan. The count also
// covers an entry between its count update and its slot change, so the
// fallback fires spuriously at times; it lowers the bound only to an
// occupied slot, so such a rescan leaves later scans as narrow as before.
func (q *TwoLevelPQ) scan(visit func(p int64, t *lfht.Map[*GEntry]) bool) {
	lo, hi := q.scanBounds()
	found := false
	for p := lo; p <= hi; p++ {
		if t := q.peek(p); t != nil && !t.Empty() {
			found = true
			if !visit(p, t) {
				return
			}
		}
	}
	if !found && q.compress && q.finite.Load() > 0 {
		for p, hi := int64(0), q.upper.Load(); p <= hi; p++ {
			if t := q.peek(p); t != nil && !t.Empty() {
				casMin(&q.lower, p)
				if !visit(p, t) {
					return
				}
			}
		}
	}
	if t := q.peek(q.maxStep + 1); t != nil && !t.Empty() {
		visit(Inf, t)
	}
}

// ProcessBatch visits up to max minimum-priority entries in priority
// order, invoking fn on each while its node is still live in the slot
// table — the flush-before-dequeue protocol that keeps the consistency
// gate sound (an urgent entry stays visible to Top until its updates have
// reached host memory). Finite priorities drain before ∞, so deferred
// updates flush only when nothing urgent is pending. Claimed entries (fn
// returned true) leave the logical count; stale residues are culled for
// free.
func (q *TwoLevelPQ) ProcessBatch(max int, fn func(g *GEntry, slotPriority int64) bool) int {
	if max <= 0 || q.count.Load() == 0 {
		return 0
	}
	processed := 0
	q.scan(func(p int64, t *lfht.Map[*GEntry]) bool {
		processed += t.DrainN(max-processed, func(_ uint64, g *GEntry) {
			g.Mu.Lock()
			claimed := fn(g, p)
			g.Mu.Unlock()
			if claimed {
				q.count.Add(-1)
				if p != Inf {
					q.finite.Add(-1)
				}
				q.o.Dequeue(g.Key)
			} else {
				q.o.StalePop(g.Key)
			}
		})
		return processed < max
	})
	return processed
}

// Top returns the smallest finite priority currently in the queue, or Inf
// when only deferred (∞) work remains. A residue node can make Top
// transiently under-report, which is safe for the consistency gate: it
// only blocks training longer, never lets a stale read through.
//
// Over-reporting is the dangerous direction — a Top that misses a live
// finite entry opens the §3.3 gate early, i.e. a stale read. scan's
// self-healing fallback is what rules it out when an entry hides below a
// raised lower bound.
func (q *TwoLevelPQ) Top() int64 {
	if q.count.Load() == 0 {
		return Inf
	}
	top := Inf
	q.scan(func(p int64, _ *lfht.Map[*GEntry]) bool {
		top = p
		return false
	})
	return top
}

// RaiseLowerBound narrows the Top/ProcessBatch scan range from below (§3.4
// scan-range compression). The caller must guarantee that no current or
// future g-entry can carry a finite priority below p — in P²F this holds
// with p = s+1 once the consistency gate for step s has passed, because
// every read for steps ≤ s has left the read sets by then. Defensive
// casMin in Enqueue/AdjustPriority self-heals if the contract is broken.
func (q *TwoLevelPQ) RaiseLowerBound(p int64) {
	if !q.compress {
		return
	}
	casMax(&q.lower, p)
}

// Len returns the number of claimed-in entries (excludes residues).
func (q *TwoLevelPQ) Len() int { return int(q.count.Load()) }

var _ Queue = (*TwoLevelPQ)(nil)
