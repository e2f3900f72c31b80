package pq

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"sync/atomic"

	"frugal/internal/lfht"
	"frugal/internal/obs"
)

// TwoLevelPQ is Frugal's customised concurrent priority queue (§3.4,
// Fig 7). Level one is a priority index: a ring of R slots for finite
// priorities, where priority p lives in slot p mod R, plus one slot for ∞.
// Each slot points to a lock-free hash table holding the g-entries that
// currently carry that priority. All operations are O(1):
//
//   - Enqueue inserts into the slot table for the entry's priority.
//   - AdjustPriority inserts into the new slot first and then deletes from
//     the old one; the flusher's claim detects the transient duplicate by
//     comparing the entry's current priority with the slot it was found in.
//   - Top and ProcessBatch share one scan (scan) for the first non-empty
//     slot. With scan-range compression (on by default) it starts at the
//     lower bound, which the gate raises past each step it opens
//     (RaiseLowerBound); without it, it covers all R slots below the
//     largest finite priority ever enqueued.
//
// The paper indexes priorities 0 … max_step densely. Scan-range
// compression already keeps every live finite priority within
// [s, s+L] plus trainer skew, so a ring sized to that window holds them
// all, and a slot whose priority has fallen below the lower bound is
// recycled for priority p+R instead of kept for the life of the queue.
// Recycling resets the slot's table (lfht.Map.Reset), which keeps its
// directory and arena chunks. The ∞ slot is never recycled for another
// priority, but RaiseLowerBound resets its table in place whenever it has
// drained, so a queue in steady state allocates nothing per step however
// long it runs.
//
// Resetting a table that other goroutines may still reach needs a
// protocol, because lfht never reclaims single nodes. Every operation on
// a finite slot or on ∞ pins the slot, checks that it still serves the
// operation's priority and is not being reset, and unpins when done
// (acquire). A retirer (tryReset) marks the slot, then resets the table
// only if no pin is held and the table is empty; otherwise it clears the
// mark and leaves the slot as it was, where scan still sees it — a late
// insert stays in place and is drained like any other entry, and the
// reset is tried again later. The retirer never waits: a pinned drainer
// can be blocked on a g-entry lock that an inserter holds, so a waiting
// retirer could deadlock with an inserter waiting for it. Pins are
// counted on cache-line-padded stripes picked by key, so operations on
// one slot do not all write one shared word; the retirer sums them.
//
// An entry whose slot still holds an older priority that cannot be
// recycled (the window was exceeded, or a hidden entry is still there) is
// filed under that older priority: it flushes early, which the gate
// tolerates. An entry whose slot already serves a newer priority — one
// enqueued more than R below the newest — is filed in the straggler slot
// at priority -1, which every scan visits first. Both only ever lower an
// entry's priority, so Top may under-report but never over-report.
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
	ring  []ringSlot
	mask  int64
	inf   ringSlot           // the ∞ slot: serves infOpen, reset in place
	strag *lfht.Map[*GEntry] // entries filed at straggler

	count atomic.Int64
	// finite counts the finite-priority entries resident in a slot table:
	// incremented once the entry's insert has landed and the scan range
	// covers it, and decremented when it is claimed (or moved to ∞). An entry still on its way into a slot
	// is not counted, so scan's self-healing fallback runs only when an
	// entry that was resident before the scan began is still resident
	// after it, and the scan did not see it — a hidden entry.
	finite atomic.Int64

	// Scan-range compression state (§3.4 optimisation). lower also decides
	// which slots may be recycled, so it is kept whether or not compression
	// is on.
	compress bool
	lower    atomic.Int64 // smallest priority a finite entry may carry
	upper    atomic.Int64 // largest finite priority ever enqueued

	// o mirrors operation counts into the observability layer (nil = off).
	o *obs.PQObs
}

// straggler is the priority of an entry filed below the ring's window
// (see TwoLevelPQ): it sorts before every real priority, so it drains
// first and holds the gate shut until it has.
const straggler int64 = -1

// ringSlot is one slot of the priority index: a finite slot of the ring,
// or ∞.
type ringSlot struct {
	// state is slotFree, 2p while the table serves priority p, or 2p+1
	// while a retirer decides whether to reset it.
	state atomic.Int64
	// t and pins are set once, t first, before the slot first serves.
	t    atomic.Pointer[lfht.Map[*GEntry]]
	pins atomic.Pointer[pinSet]
}

// pinSet counts the operations in progress on a slot's table on
// pinStripes cache-line-padded stripes.
type pinSet [pinStripes]struct {
	n atomic.Int64
	_ [56]byte
}

const (
	pinStripeBits = 3
	pinStripes    = 1 << pinStripeBits
)

// stripe returns the pin counter for pin, a key or any other value the
// caller passes to both acquire and release.
func (ps *pinSet) stripe(pin uint64) *atomic.Int64 {
	return &ps[(pin*0x9e3779b97f4a7c15)>>(64-pinStripeBits)].n
}

// pinned reports whether an operation holds a pin. The sum is exact for
// a retirer that has marked the slot: a pin taken before the mark is
// counted on its stripe until it is released, and one taken after it
// is released again by acquire.
func (ps *pinSet) pinned() bool {
	var n int64
	for i := range ps {
		n += ps[i].n.Load()
	}
	return n != 0
}

// open gives a slot that has never served its table and pin counters.
func (s *ringSlot) open(hint int) {
	if s.pins.Load() == nil {
		s.t.CompareAndSwap(nil, lfht.NewReusable[*GEntry](hint))
		s.pins.CompareAndSwap(nil, new(pinSet))
	}
}

const (
	slotFree int64 = -1
	// infOpen is the priority label the ∞ slot always serves: its state
	// is 2·infOpen while open and 2·infOpen+1 while being reset.
	infOpen int64 = 0
)

// acquire pins the slot and returns its table if it serves priority p and
// is not being reset; otherwise it returns nil holding no pin. The
// caller must release a returned table with the same pin.
func (s *ringSlot) acquire(p int64, pin uint64) *lfht.Map[*GEntry] {
	ps := s.pins.Load()
	if ps == nil {
		return nil // never served
	}
	c := ps.stripe(pin)
	c.Add(1)
	if s.state.Load() == 2*p {
		return s.t.Load()
	}
	c.Add(-1)
	return nil
}

func (s *ringSlot) release(pin uint64) { s.pins.Load().stripe(pin).Add(-1) }

// occupied reports whether the slot's table serves p and holds entries. A
// table being reset counts: it is reset only once it is found empty.
func (s *ringSlot) occupied(p int64) bool {
	return s.state.Load()>>1 == p && !s.t.Load().Empty()
}

// tryReset resets the slot's table if it serves p, is empty and is
// pinned by no one, leaves the slot in state next, and reports whether it
// did. It never waits.
func (s *ringSlot) tryReset(p, next int64) bool {
	if !s.state.CompareAndSwap(2*p, 2*p+1) {
		return false
	}
	// From here on no new operation gets past acquire, so with no pin
	// held nothing can reach the table while it is reset.
	t := s.t.Load()
	if s.pins.Load().pinned() || !t.Empty() {
		s.state.Store(2 * p)
		return false
	}
	t.Reset()
	s.state.Store(next)
	return true
}

// tryRetire recycles a finite slot that served p for another priority.
func (s *ringSlot) tryRetire(p int64) bool { return s.tryReset(p, slotFree) }

// pinInf pins the ∞ slot and returns its table, waiting out a reset in
// progress (which never waits itself). The caller releases it with
// q.inf.release(pin).
func (q *TwoLevelPQ) pinInf(pin uint64) *lfht.Map[*GEntry] {
	for {
		if t := q.inf.acquire(infOpen, pin); t != nil {
			return t
		}
		runtime.Gosched()
	}
}

// TwoLevelOptions configures a TwoLevelPQ.
type TwoLevelOptions struct {
	// Window is the span of finite priorities the queue holds at once:
	// the ring gets R slots, the smallest power of two ≥ Window (at
	// least 16). The P²F controller derives it from its lookahead and
	// trainer count.
	Window int64
	// DisableScanCompression turns the §3.4 scan-range optimisation off
	// (used by the ablation benchmark).
	DisableScanCompression bool
}

// maxRing bounds the ring: a slot costs 24 bytes before its first use.
const maxRing = 1 << 24

// NewTwoLevelPQ builds an empty queue for priorities ≥ 0 and ∞.
func NewTwoLevelPQ(opt TwoLevelOptions) (*TwoLevelPQ, error) {
	if opt.Window < 0 {
		return nil, fmt.Errorf("pq: negative Window %d", opt.Window)
	}
	if opt.Window > maxRing {
		return nil, errors.New("pq: Window too large for a priority ring")
	}
	r := int64(16)
	if opt.Window > r {
		r = 1 << bits.Len64(uint64(opt.Window-1))
	}
	q := &TwoLevelPQ{
		ring:     make([]ringSlot, r),
		mask:     r - 1,
		strag:    lfht.NewWithHint[*GEntry](0),
		compress: !opt.DisableScanCompression,
	}
	for i := range q.ring {
		q.ring[i].state.Store(slotFree)
	}
	q.inf.open(infSlotHint)
	q.inf.state.Store(2 * infOpen)
	q.upper.Store(-1)
	return q, nil
}

// SetObserver attaches an observability sink (nil detaches). Call before
// the queue sees traffic.
func (q *TwoLevelPQ) SetObserver(o *obs.PQObs) { q.o = o }

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

// slot returns the ring slot of finite priority p.
func (q *TwoLevelPQ) slot(p int64) *ringSlot { return &q.ring[p&q.mask] }

// file inserts g under finite priority p and returns the priority it was
// filed under: p itself, an older priority still holding p's slot, or
// straggler (see TwoLevelPQ).
func (q *TwoLevelPQ) file(g *GEntry, p int64) int64 {
	if p < 0 {
		panic(fmt.Sprintf("pq: negative priority %d", p))
	}
	s := q.slot(p)
	for {
		if t := s.acquire(p, g.Key); t != nil {
			t.Insert(g.Key, g)
			s.release(g.Key)
			return p
		}
		st := s.state.Load()
		switch old := st >> 1; {
		case st == slotFree:
			s.open(finiteSlotHint)
			s.state.CompareAndSwap(slotFree, 2*p)
		case st&1 == 1:
			runtime.Gosched() // a retirer is deciding; it never waits
		case old > p:
			q.strag.Insert(g.Key, g)
			return straggler
		case old < q.lower.Load() && s.tryRetire(old):
		default:
			if t := s.acquire(old, g.Key); t != nil {
				t.Insert(g.Key, g)
				s.release(g.Key)
				return old
			}
		}
	}
}

// unfile deletes key's node from the table of priority p (as file
// returned it).
func (q *TwoLevelPQ) unfile(key uint64, p int64) {
	switch p {
	case Inf:
		q.pinInf(key).Delete(key)
		q.inf.release(key)
		return
	case straggler:
		q.strag.Delete(key)
		return
	}
	s := q.slot(p)
	for {
		if t := s.acquire(p, key); t != nil {
			t.Delete(key)
			s.release(key)
			return
		}
		st := s.state.Load()
		if st>>1 != p {
			// The slot no longer serves p: it was recycled, which it is
			// only once empty, so it held no node of key.
			return
		}
		if st&1 == 1 {
			runtime.Gosched() // a retirer is deciding; it never waits
		}
	}
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

// casMax raises v to x if x is larger and returns the value it replaced
// (x itself when v was already at least x).
func casMax(v *atomic.Int64, x int64) int64 {
	for {
		cur := v.Load()
		if x <= cur {
			return x
		}
		if v.CompareAndSwap(cur, x) {
			return cur
		}
	}
}

// Enqueue inserts g under priority p. The caller must hold g.Mu; Enqueue
// sets g.Priority and g.InQueue itself so that slot membership and entry
// state change atomically with respect to dequeuers. g.Priority is the
// priority the entry was filed under, which is below p only when p lies
// outside the ring's window.
func (q *TwoLevelPQ) Enqueue(g *GEntry, p int64) {
	if p != Inf {
		p = q.file(g, p)
		q.track(p)
		q.finite.Add(1)
	} else {
		q.pinInf(g.Key).Insert(g.Key, g)
		q.inf.release(g.Key)
	}
	g.Priority = p
	g.InQueue = true
	q.count.Add(1)
	q.o.Enqueue(g.Key)
}

// track widens the scan range to cover a finite priority just filed.
func (q *TwoLevelPQ) track(p int64) {
	if p == straggler {
		return // the straggler slot is scanned whatever the range
	}
	casMin(&q.lower, p)
	casMax(&q.upper, p)
}

// AdjustPriority moves g from priority old to new. The caller must hold
// g.Mu, and old must be g.Priority. Following §3.4, the entry is inserted
// into the new slot *before* being deleted from the old one so a
// concurrent dequeuer always finds at least one live node; the transient
// duplicate is culled by validation.
func (q *TwoLevelPQ) AdjustPriority(g *GEntry, old, new int64) {
	if old == new {
		return
	}
	if new != Inf {
		new = q.file(g, new)
		q.track(new)
		if old == Inf {
			q.finite.Add(1)
		}
	} else {
		q.pinInf(g.Key).Insert(g.Key, g)
		q.inf.release(g.Key)
	}
	g.Priority = new
	q.unfile(g.Key, old)
	if new == Inf && old != Inf {
		q.finite.Add(-1)
	}
	q.o.Adjust(g.Key)
}

// scanBounds returns the inclusive range of finite priorities a scan
// covers: at most R of them.
func (q *TwoLevelPQ) scanBounds() (lo, hi int64) {
	hi = q.upper.Load()
	if q.compress {
		lo = q.lower.Load()
		return lo, min(hi, lo+q.mask)
	}
	return max(0, hi-q.mask), hi
}

// walk calls visit on each occupied priority in [lo, hi], in order, until
// visit returns false. It reports whether any priority was occupied and
// whether visit asked for more.
func (q *TwoLevelPQ) walk(lo, hi int64, visit func(p int64) bool) (found, more bool) {
	for p := lo; p <= hi; p++ {
		if q.slot(p).occupied(p) {
			found = true
			if !visit(p) {
				return true, false
			}
		}
	}
	return found, true
}

// hiddenMin returns the smallest priority whose ring table holds entries,
// checking all R slots.
func (q *TwoLevelPQ) hiddenMin() (int64, bool) {
	m := Inf
	for i := range q.ring {
		s := &q.ring[i]
		if st := s.state.Load(); st >= 0 && st>>1 < m && !s.t.Load().Empty() {
			m = st >> 1
		}
	}
	return m, m != Inf
}

// scan is the one walk of the priority index behind Top and ProcessBatch:
// it calls visit on each occupied priority in order — the straggler slot,
// the finite priorities of the scan range, then ∞ — until visit returns
// false.
//
// The compressed scan range is a performance hint, not a correctness
// invariant: an Enqueue below the lower bound can race with a
// RaiseLowerBound and leave a live entry beneath it. When the range holds
// no occupied slot while an entry resident before the walk is still
// resident after it, and a second walk of the range finds nothing either,
// scan self-heals before it reaches ∞: it checks all R slots for the
// smallest occupied priority, lowers the bound to it and walks on from
// there. Entries still on their way into a slot are not counted (see
// finite), so the common only-deferred-work state and a racing enqueue
// never pay for the rescan; each one that runs is counted in obs.PQObs.
func (q *TwoLevelPQ) scan(visit func(p int64) bool) {
	found := false
	if !q.strag.Empty() {
		found = true
		if !visit(straggler) {
			return
		}
	}
	before := q.finite.Load()
	lo, hi := q.scanBounds()
	inRange, more := q.walk(lo, hi, visit)
	if !more {
		return
	}
	if !found && !inRange && before > 0 && q.finite.Load() > 0 {
		// An entry counted before the walk may have moved behind it, or
		// been claimed while a new one landed behind it or above the
		// range: a second walk, over the range as it is now, settles
		// those races before any rescan. (An entry widens the range
		// before it is counted.)
		lo, hi = q.scanBounds()
		if inRange, more = q.walk(lo, hi, visit); !more {
			return
		}
		if !inRange {
			q.o.Rescan()
			if m, ok := q.hiddenMin(); ok {
				casMin(&q.lower, m)
				if _, more = q.walk(m, m+q.mask, visit); !more {
					return
				}
			}
		}
	}
	if q.inf.occupied(infOpen) {
		visit(Inf)
	}
}

// table pins and returns the table of priority p (nil when a finite
// slot no longer serves p, or a slot is being reset); release undoes the
// pin.
func (q *TwoLevelPQ) table(p int64, pin uint64) *lfht.Map[*GEntry] {
	switch p {
	case Inf:
		return q.inf.acquire(infOpen, pin)
	case straggler:
		return q.strag
	}
	return q.slot(p).acquire(p, pin)
}

func (q *TwoLevelPQ) release(p int64, pin uint64) {
	switch p {
	case Inf:
		q.inf.release(pin)
	case straggler:
	default:
		q.slot(p).release(pin)
	}
}

// ProcessBatch visits up to max minimum-priority entries in priority
// order, invoking fn on each while its node is still live in the slot
// table — the flush-before-dequeue protocol that keeps the consistency
// gate sound (an urgent entry stays visible to Top until its updates have
// reached host memory). Finite priorities drain before ∞, so deferred
// updates flush only when nothing urgent is pending. Claimed entries (fn
// returned true) leave the logical count; stale residues are culled for
// free. A slot being reset is skipped: it is empty, or its retirer
// leaves it in place for a later call.
func (q *TwoLevelPQ) ProcessBatch(max int, fn func(g *GEntry, slotPriority int64) bool) int {
	if max <= 0 || q.count.Load() == 0 {
		return 0
	}
	processed := 0
	pin := rand.Uint64() // a drain has no key; any stripe will do
	q.scan(func(p int64) bool {
		t := q.table(p, pin)
		if t == nil {
			return true
		}
		processed += t.DrainN(max-processed, func(_ uint64, g *GEntry) {
			g.Mu.Lock()
			claimed := fn(g, p)
			if claimed {
				// Counted out under the lock: a second visitor, which
				// may unlink the node once it gets the lock, must not
				// find it gone while it is still counted.
				q.count.Add(-1)
				if p != Inf {
					q.finite.Add(-1)
				}
			}
			g.Mu.Unlock()
			if claimed {
				q.o.Dequeue(g.Key)
			} else {
				q.o.StalePop(g.Key)
			}
		})
		q.release(p, pin)
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
	q.scan(func(p int64) bool {
		top = p
		return false
	})
	return top
}

// RaiseLowerBound narrows the Top/ProcessBatch scan range from below (§3.4
// scan-range compression) and recycles the slots of the priorities it
// passes. The caller must guarantee that no current or future g-entry can
// carry a finite priority below p — in P²F this holds with p = s+1 once
// the consistency gate for step s has passed, because every read for
// steps ≤ s has left the read sets by then. Defensive casMin in
// Enqueue/AdjustPriority self-heals if the contract is broken.
//
// A slot that cannot be recycled yet (an entry or a pin is still in it)
// is left to the next Enqueue that needs it. The ∞ table is reset in
// place when it has drained and nothing holds a pin on it; otherwise the
// reset waits for a later call.
func (q *TwoLevelPQ) RaiseLowerBound(p int64) {
	old := casMax(&q.lower, p)
	for x := max(old, p-q.mask-1, 0); x < p; x++ {
		q.slot(x).tryRetire(x)
	}
	if q.inf.t.Load().Empty() {
		q.inf.tryReset(infOpen, 2*infOpen)
	}
}

// Len returns the number of claimed-in entries (excludes residues).
func (q *TwoLevelPQ) Len() int { return int(q.count.Load()) }

var _ Queue = (*TwoLevelPQ)(nil)
