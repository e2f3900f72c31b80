package pq

import (
	goruntime "runtime"
	"sync"
	"testing"
)

// TestInfSlotCycleZeroAlloc pins the point of resetting ∞ in place: once
// the ∞ table has held its largest population, a step of deferred
// traffic — enqueue at ∞, drain it through ProcessBatch, raise the lower
// bound — allocates nothing, because RaiseLowerBound resets the drained
// table and its arena chunks are reused.
func TestInfSlotCycleZeroAlloc(t *testing.T) {
	const perStep = 3*256 + 7 // more than one arena chunk a step
	q := mustTwoLevel(t, 16)
	entries := make([]*GEntry, perStep)
	for i := range entries {
		entries[i] = NewGEntry(uint64(i))
	}
	var s int64
	claimed := 0
	claim := countClaim(&claimed)
	cycle := func() {
		for _, g := range entries {
			enq(q, g, Inf)
		}
		for q.Len() > 0 {
			q.ProcessBatch(64, claim)
		}
		s++
		q.RaiseLowerBound(s)
	}
	cycle()
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("a step of deferred traffic allocates %v times, want 0", got)
	}
	if claimed != int(s)*perStep {
		t.Fatalf("claimed %d after %d steps, want %d", claimed, s, int(s)*perStep)
	}
}

// TestInfSlotPinnedResetBacksOff plays an insert that holds its pin on ∞
// while the gate raises the bound with ∞ empty: the reset must back off,
// and the entry stays where Top and ProcessBatch find it.
func TestInfSlotPinnedResetBacksOff(t *testing.T) {
	q := mustTwoLevel(t, 16)
	enq(q, NewGEntry(2), Inf)
	take(q, 1) // ∞ has held a node and drained
	g := NewGEntry(1)
	tb := q.inf.acquire(infOpen, g.Key) // the late insert has pinned ∞…
	q.RaiseLowerBound(1)
	if st := q.inf.state.Load(); st != 2*infOpen {
		t.Fatalf("∞ state %d after a reset under a pin, want %d", st, 2*infOpen)
	}
	g.Mu.Lock()
	tb.Insert(g.Key, g) // …and lands after the reset was tried
	g.Priority, g.InQueue = Inf, true
	q.count.Add(1)
	g.Mu.Unlock()
	q.inf.release(g.Key)
	if got, p, ok := pop(q); !ok || got != g || p != Inf {
		t.Fatalf("ProcessBatch = (%v, %d, %v), want (entry, ∞, true)", got, p, ok)
	}
	if !q.inf.tryReset(infOpen, 2*infOpen) {
		t.Fatal("∞ not reset once empty and unpinned")
	}
}

// raceReset runs op and RaiseLowerBound(bound) at once.
func raceReset(q *TwoLevelPQ, bound int64, op func()) {
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		op()
	}()
	go func() {
		defer wg.Done()
		q.RaiseLowerBound(bound)
	}()
	wg.Wait()
}

// TestInfSlotInsertRacesReset races a deferred enqueue into a drained ∞
// slot with the reset of its table, many times: whichever wins, the
// entry must be claimed exactly once, at ∞.
func TestInfSlotInsertRacesReset(t *testing.T) {
	q := mustTwoLevel(t, 16)
	for i := int64(0); i < 2000; i++ {
		enq(q, NewGEntry(uint64(1<<32+i)), Inf) // ∞ holds a node, then drains
		take(q, 1)
		g := NewGEntry(uint64(i))
		raceReset(q, i+1, func() { enq(q, g, Inf) })
		if top := q.Top(); top != Inf || q.Len() != 1 {
			t.Fatalf("round %d: Top = %d, Len = %d, want ∞ and 1", i, top, q.Len())
		}
		got := take(q, 2)
		if len(got) != 1 || got[0].g != g || got[0].p != Inf {
			t.Fatalf("round %d: claimed %v, want the entry once at ∞", i, got)
		}
	}
}

// TestInfSlotDeleteRacesReset moves the only entry of ∞ to a finite
// priority (AdjustPriority deletes it from ∞) while the gate raises the
// bound: the reset may run only once the delete has left the table, and
// the entry must be claimed exactly once, at its new priority.
func TestInfSlotDeleteRacesReset(t *testing.T) {
	q := mustTwoLevel(t, 16)
	for i := int64(0); i < 2000; i++ {
		g := NewGEntry(uint64(i))
		enq(q, g, Inf)
		raceReset(q, i, func() { adj(q, g, i+1) })
		if n := q.inf.t.Load().Len(); n != 0 {
			t.Fatalf("round %d: ∞ holds %d nodes after the move, want 0", i, n)
		}
		got := take(q, 2)
		if len(got) != 1 || got[0].g != g || got[0].p != i+1 {
			t.Fatalf("round %d: claimed %v, want the entry once at %d", i, got, i+1)
		}
	}
}

// TestInfSlotDrainRacesReset drains ∞ while the gate raises the bound:
// a drainer holds its pin across the claim, so the reset can find the
// table empty only after the drain has finished with it. Every entry is
// claimed exactly once, and the table keeps working after each reset.
func TestInfSlotDrainRacesReset(t *testing.T) {
	q := mustTwoLevel(t, 16)
	for i := int64(0); i < 2000; i++ {
		a, b := NewGEntry(uint64(2*i)), NewGEntry(uint64(2*i+1))
		enq(q, a, Inf)
		enq(q, b, Inf)
		var got []claim
		raceReset(q, i+1, func() { got = take(q, 2) })
		if len(got) != 2 || got[0].g == got[1].g {
			t.Fatalf("round %d: claimed %v, want both entries once", i, got)
		}
		if q.Len() != 0 || q.Top() != Inf {
			t.Fatalf("round %d: Len = %d, Top = %d after the drain", i, q.Len(), q.Top())
		}
	}
}

// TestInfSlotNeverDrainingBounded keeps one entry in ∞ for the whole run
// while deferred entries come and go, so the table is never empty and
// never reset. Its retained arena must stay bounded — no more than the
// reusable table's chunk limit — instead of growing with every insert.
func TestInfSlotNeverDrainingBounded(t *testing.T) {
	q := mustTwoLevel(t, 16)
	enq(q, NewGEntry(1<<40), Inf) // never leaves ∞
	g := NewGEntry(1)
	var p int64
	churn := func(n int) {
		for i := 0; i < n; i++ {
			enq(q, g, Inf)
			p++
			adj(q, g, p) // deleted from ∞
			if got := take(q, 1); len(got) != 1 || got[0].g != g {
				t.Fatalf("claimed %v, want the churned entry", got)
			}
			q.RaiseLowerBound(p + 1)
		}
	}
	heap := func() uint64 {
		var ms goruntime.MemStats
		goruntime.GC()
		goruntime.GC()
		goruntime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	churn(40_000) // past the chunk limit: 64 chunks of 256 nodes
	before := heap()
	churn(80_000) // 312 more chunks if every one were kept
	if grew := int64(heap()) - int64(before); grew > 1<<20 {
		t.Fatalf("a never-draining ∞ slot retained %d more bytes over 80,000 inserts, want ≤ 1 MB", grew)
	}
	if q.Len() != 1 || q.inf.t.Load().Len() != 1 {
		t.Fatalf("Len = %d, ∞ holds %d, want the sentinel alone", q.Len(), q.inf.t.Load().Len())
	}
}
