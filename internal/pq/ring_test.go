package pq

import (
	"sync"
	"testing"
	"time"

	"frugal/internal/obs"
)

// countClaim is the flusher's claim, counting what it claims in n.
func countClaim(n *int) func(g *GEntry, p int64) bool {
	return func(g *GEntry, p int64) bool {
		if !g.InQueue || g.Priority != p {
			return false
		}
		g.InQueue = false
		*n++
		return true
	}
}

// drainStep claims every entry at priorities ≤ s, the way the P²F gate
// waits for them before it passes step s.
func drainStep(q *TwoLevelPQ, s int64, claim func(g *GEntry, p int64) bool) {
	for q.Top() <= s {
		q.ProcessBatch(64, claim)
	}
}

// TestRingCycleZeroAlloc pins the point of the ring: once every slot has
// served a step, one training step's worth of queue traffic — enqueue
// inside the window, drain the front priority through ProcessBatch, raise
// the lower bound past it — allocates nothing, because the slot the gate
// leaves behind is reset and reused instead of replaced.
func TestRingCycleZeroAlloc(t *testing.T) {
	const window, perStep = 8, 64
	q := mustTwoLevel(t, 2*window)
	entries := make([]*GEntry, perStep)
	for i := range entries {
		entries[i] = NewGEntry(uint64(i))
	}
	var s int64
	claimed := 0
	claim := countClaim(&claimed)
	cycle := func() {
		for i, g := range entries {
			enq(q, g, s+1+int64(i%window))
		}
		for p := s + 1; p <= s+window; p++ {
			drainStep(q, p, claim)
			q.RaiseLowerBound(p + 1)
		}
		s += window
	}
	for i := 0; i < 4*len(q.ring)/window; i++ {
		cycle() // every slot serves a step and grows its arena
	}
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("a window of steps allocates %v times, want 0", got)
	}
	if q.Len() != 0 || claimed != int(s/window)*perStep {
		t.Fatalf("Len = %d, claimed %d after %d steps", q.Len(), claimed, s)
	}
}

// TestRingWraps drives a queue of 16 slots through ten wraps one step at
// a time, as the gate does, and checks that entries are claimed in
// priority order, each at the priority it was enqueued under, that each
// slot keeps its table across wraps, and that a run with no races never
// needs the self-healing rescan.
func TestRingWraps(t *testing.T) {
	const window = 6
	q := mustTwoLevel(t, 16)
	o := obs.New(obs.Options{TraceCapacity: -1})
	q.SetObserver(o.PQSink())
	r := int64(len(q.ring))
	want, got := map[int64]int{}, map[int64]int{}
	last := int64(-1)
	claim := func(g *GEntry, p int64) bool {
		if !g.InQueue || g.Priority != p {
			return false
		}
		g.InQueue = false
		if p < last {
			t.Errorf("claimed priority %d after %d", p, last)
		}
		last = p
		got[p]++
		return true
	}
	tables := map[int64]any{}
	key := uint64(0)
	for s := int64(0); s < 10*r; s++ {
		// The prefetcher registers step s+window's reads.
		for i := 0; i < 1+int(s%3); i++ {
			key++
			enq(q, NewGEntry(key), s+window)
			want[s+window]++
		}
		drainStep(q, s, claim)
		if got[s] != want[s] {
			t.Fatalf("step %d: claimed %d entries at it, want %d", s, got[s], want[s])
		}
		q.RaiseLowerBound(s + 1)
		if tb := q.slot(s).t.Load(); s >= window {
			if prev, ok := tables[s&q.mask]; ok && prev != any(tb) {
				t.Fatalf("step %d: slot %d got a new table", s, s&q.mask)
			}
			tables[s&q.mask] = tb
		}
	}
	if n := o.Snapshot().PQRescans; n != 0 {
		t.Fatalf("%d self-healing rescans in a race-free run, want 0", n)
	}
}

// TestRingLateInsertSurvivesRetire plays an insert that holds its pin
// when the gate passes its priority: the retire must back off, and the
// entry stays where Top and ProcessBatch find it.
func TestRingLateInsertSurvivesRetire(t *testing.T) {
	q := mustTwoLevel(t, 16)
	g := NewGEntry(1)
	enq(q, NewGEntry(2), 5) // the slot serves 5
	n := 0
	drainStep(q, 5, countClaim(&n))
	s := q.slot(5)
	tb := s.acquire(5, 0) // the late insert has pinned the slot…
	q.RaiseLowerBound(6)
	if st := s.state.Load(); st != 2*5 {
		t.Fatalf("slot state %d after a retire under a pin, want %d", st, 2*5)
	}
	g.Mu.Lock()
	tb.Insert(g.Key, g) // …and lands below the bound
	g.Priority, g.InQueue = 5, true
	q.finite.Add(1)
	q.count.Add(1)
	g.Mu.Unlock()
	s.release(0)
	if top := q.Top(); top != 5 {
		t.Fatalf("Top = %d, want 5: the late insert must stay visible", top)
	}
	if got, p, ok := pop(q); !ok || got != g || p != 5 {
		t.Fatalf("ProcessBatch = (%v, %d, %v), want (entry, 5, true)", got, p, ok)
	}
	if !s.tryRetire(5) {
		t.Fatal("slot not recycled once empty and unpinned")
	}
}

// TestRingInsertRacesRetire races an insert below the bound with the
// retire of its slot, many times: whichever wins, the entry must be
// claimed exactly once at a priority no later than its own.
func TestRingInsertRacesRetire(t *testing.T) {
	q := mustTwoLevel(t, 16)
	n := 0
	claim := countClaim(&n)
	for i := int64(0); i < 2000; i++ {
		p := 3 * i
		enq(q, NewGEntry(uint64(1<<32+i)), p) // the slot serves p, then drains
		drainStep(q, p, claim)
		g := NewGEntry(uint64(i))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			enq(q, g, p)
		}()
		go func() {
			defer wg.Done()
			q.RaiseLowerBound(p + 1)
		}()
		wg.Wait()
		if top := q.Top(); top > p {
			t.Fatalf("round %d: Top = %d over an entry at %d", i, top, p)
		}
		got := take(q, 2)
		if len(got) != 1 || got[0].g != g || got[0].p > p {
			t.Fatalf("round %d: claimed %v, want the entry once at ≤ %d", i, got, p)
		}
	}
}

// TestRingDrainerPinnedAcrossRetire holds a drainer inside a slot —
// pinned, and blocked on an entry's lock that an enqueuer holds — while
// the gate passes the slot's priority and the enqueuer needs the same
// slot for a priority one ring later. Neither may wait for the other:
// the enqueue files its entry under the old priority, and both entries
// drain exactly once.
func TestRingDrainerPinnedAcrossRetire(t *testing.T) {
	q := mustTwoLevel(t, 16)
	r := int64(len(q.ring))
	x, y := NewGEntry(1), NewGEntry(2)
	enq(q, x, 5)

	x.Mu.Lock()
	drained := make(chan int)
	go func() {
		drained <- q.ProcessBatch(1, countClaim(new(int)))
	}()
	// Wait until the drainer holds the slot's pin (it then blocks on
	// x.Mu inside its claim).
	for !q.slot(5).pins.Load().pinned() {
		time.Sleep(10 * time.Microsecond)
	}
	q.RaiseLowerBound(6)
	y.Mu.Lock()
	q.Enqueue(y, 5+r)
	y.Mu.Unlock()
	if y.Priority != 5 {
		t.Fatalf("entry filed at %d, want 5 (its slot still serves 5)", y.Priority)
	}
	x.Mu.Unlock()
	if n := <-drained; n != 1 || x.InQueue {
		t.Fatalf("pinned drainer processed %d (x queued: %v), want 1 (false)", n, x.InQueue)
	}
	got := take(q, 2)
	if len(got) != 1 || got[0].g != y {
		t.Fatalf("claimed %v after the drainer, want y alone", got)
	}
}

// TestRingDeleteFromRetiringTable moves an entry out of a slot whose
// retirer is mid-decision: the delete waits for the retirer, which finds
// the table non-empty and keeps it, and the entry then drains exactly
// once, at its new priority.
func TestRingDeleteFromRetiringTable(t *testing.T) {
	q := mustTwoLevel(t, 16)
	g := NewGEntry(1)
	enq(q, g, 5)
	s := q.slot(5)
	if !s.state.CompareAndSwap(2*5, 2*5+1) { // the retirer marks the slot
		t.Fatal("slot does not serve 5")
	}
	moved := make(chan struct{})
	go func() {
		adj(q, g, 7)
		close(moved)
	}()
	select {
	case <-moved:
		t.Fatal("delete went through a slot being retired")
	case <-time.After(20 * time.Millisecond):
	}
	s.state.Store(2 * 5) // the retirer found an entry and backs off
	<-moved
	if n := s.t.Load().Len(); n != 0 {
		t.Fatalf("old slot holds %d nodes after the move, want 0", n)
	}
	got := take(q, 2)
	if len(got) != 1 || got[0].g != g || got[0].p != 7 {
		t.Fatalf("claimed %v, want the entry once at 7", got)
	}
	if !s.tryRetire(5) {
		t.Fatal("emptied slot not recycled")
	}
}

// TestRingOutsideWindow covers the two ways an entry can miss the ring's
// window: beyond it, its slot still serves an older live priority and
// the entry is filed there; more than R below the newest priority, its
// slot serves a newer one and the entry goes to the straggler slot,
// which drains first.
func TestRingOutsideWindow(t *testing.T) {
	q := mustTwoLevel(t, 16)
	r := int64(len(q.ring))
	a, b := NewGEntry(1), NewGEntry(2)
	enq(q, a, 3)
	enq(q, b, 3+r)
	if b.Priority != 3 {
		t.Fatalf("beyond-window entry filed at %d, want 3", b.Priority)
	}
	if got := take(q, 4); len(got) != 2 {
		t.Fatalf("claimed %d, want 2", len(got))
	}
	q.RaiseLowerBound(4 + r)
	c, d := NewGEntry(3), NewGEntry(4)
	enq(q, c, 4+r) // slot 4 now serves 4+r
	enq(q, d, 4)
	if d.Priority != straggler {
		t.Fatalf("below-window entry filed at %d, want %d", d.Priority, straggler)
	}
	if top := q.Top(); top != straggler {
		t.Fatalf("Top = %d, want %d", top, straggler)
	}
	adj(q, d, 6+r) // a straggler moves back into the ring
	got := take(q, 4)
	if len(got) != 2 || got[0].g != c || got[1].g != d || got[1].p != 6+r {
		t.Fatalf("claimed %v, want c@%d then d@%d", got, 4+r, 6+r)
	}
}
