package pq

import "testing"

// TestTopSelfHealsBelowRaisedLowerBound plants a live finite entry below a
// raised scan lower bound — the outcome of the Enqueue/RaiseLowerBound
// race the compressed scan range admits — and asserts Top still reports
// it. Before the fallback, Top returned Inf here: an over-report that
// would open the consistency gate while an unflushed entry with a pending
// read was still queued (a stale read). Top and ProcessBatch share one
// scan and so one fallback for this race.
func TestTopSelfHealsBelowRaisedLowerBound(t *testing.T) {
	q := mustTwoLevel(t, 100)
	g := NewGEntry(1)
	g.Mu.Lock()
	q.Enqueue(g, 5)
	g.Mu.Unlock()

	// Simulate the race: the bound is raised past a live entry (the
	// RaiseLowerBound contract says this cannot happen for settled state,
	// but a concurrent enqueue below the bound can interleave with the
	// casMin/casMax pair in exactly this order).
	q.RaiseLowerBound(20)

	if top := q.Top(); top != 5 {
		t.Fatalf("Top = %d, want 5: gate would open over a live finite entry", top)
	}
	// The fallback must also have healed the bound so flushers find the
	// entry without their own full rescan.
	got, p, ok := pop(q)
	if !ok || p != 5 || got != g {
		t.Fatalf("ProcessBatch after heal = (%v, %d, %v), want (entry, 5, true)", got, p, ok)
	}
	if top := q.Top(); top != Inf {
		t.Fatalf("Top on drained queue = %d, want Inf", top)
	}
}

// TestTopSelfHealsBeforeDeferredWork is the same race with deferred work
// queued beside the hidden entry: the fallback must run before the scan
// reaches the ∞ slot, or Top would report Inf over a live finite entry.
func TestTopSelfHealsBeforeDeferredWork(t *testing.T) {
	q := mustTwoLevel(t, 100)
	g, d := NewGEntry(1), NewGEntry(2)
	enq(q, g, 5)
	enq(q, d, Inf)
	q.RaiseLowerBound(20)
	if top := q.Top(); top != 5 {
		t.Fatalf("Top = %d, want 5: gate would open over a live finite entry", top)
	}
	if got, p, ok := pop(q); !ok || p != 5 || got != g {
		t.Fatalf("ProcessBatch = (%v, %d, %v), want (entry, 5, true) before deferred work", got, p, ok)
	}
}

// TestTopSkipsFallbackWhenOnlyDeferred pins the guard: with only ∞
// (deferred) entries queued, Top must return Inf without disturbing the
// compressed bounds — the fallback is for racing *finite* entries only.
func TestTopSkipsFallbackWhenOnlyDeferred(t *testing.T) {
	q := mustTwoLevel(t, 100)
	// Raise upper via a finite entry that is then moved to ∞, leaving the
	// queue with deferred work only.
	g := NewGEntry(2)
	g.Mu.Lock()
	q.Enqueue(g, 30)
	q.AdjustPriority(g, 30, Inf)
	g.Mu.Unlock()
	q.RaiseLowerBound(40)
	if top := q.Top(); top != Inf {
		t.Fatalf("Top = %d, want Inf (only deferred work queued)", top)
	}
	// The lower bound must be untouched: the fallback (which lowers it to
	// the first occupied slot) should not have run at all.
	if lo := q.lower.Load(); lo != 40 {
		t.Fatalf("lower bound = %d, want 40 (fallback ran on deferred-only state)", lo)
	}
}
