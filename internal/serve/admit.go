package serve

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Query classes for admission accounting. A top-K query scans the whole
// slab and costs TopKWeight units of the shared capacity pool; a lookup
// costs one.
const (
	classLookup = "lookup"
	classTopK   = "topk"
)

// ErrShed reports a request refused by admission control: the engine was
// at its inflight capacity and either the bounded admission wait expired
// or the wait queue itself was full. Shed is the engine's overload valve —
// the HTTP layer answers 429 with a Retry-After of RetryAfter.
type ErrShed struct {
	Class      string        // query class that was refused
	Waited     time.Duration // how long the request waited before being shed
	RetryAfter time.Duration // suggested client backoff
}

func (e *ErrShed) Error() string {
	return fmt.Sprintf("serve: %s shed after %v: engine at capacity (retry after %v)",
		e.Class, e.Waited.Round(time.Microsecond), e.RetryAfter)
}

// admitWaiter is one queued admission request. ready is closed exactly
// once, by the releaser that grants the slot; abandoned marks a waiter
// that timed out (or was canceled) and must be skipped by the grant scan.
type admitWaiter struct {
	need      int64
	granted   bool
	abandoned bool
	ready     chan struct{}
}

// admission is a weighted semaphore with FIFO waiters, a bounded wait,
// and a bounded queue. The uncontended Acquire path takes one mutex and
// allocates nothing — it sits on the serving hot path, which must stay
// allocation-free (see TestLookupAllocationFree).
//
// Weights let one capacity pool admit both query classes while keeping
// their costs honest: MaxInflight=64, TopKWeight=8 means at most 64
// concurrent lookups, at most 8 concurrent slab scans, or any mix in
// between. A per-class pool would instead let top-K saturation starve
// lookups of CPU they nominally still had budget for.
//
// Waiters are granted strictly in FIFO order — a lookup arriving behind a
// queued top-K waits for it, rather than slipping past and starving wide
// queries forever (no barging).
type admission struct {
	mu         sync.Mutex
	capacity   int64
	used       int64
	waiters    []*admitWaiter
	maxWait    time.Duration
	maxWaiters int
}

func newAdmission(capacity int64, maxWait time.Duration, maxWaiters int) *admission {
	return &admission{capacity: capacity, maxWait: maxWait, maxWaiters: maxWaiters}
}

// Acquire claims need units, waiting at most maxWait. It returns nil on
// admission, *ErrShed when the wait expired or the queue was full, and
// ctx.Err() when the caller's context ended first. Every nil return must
// be paired with a Release(need).
func (a *admission) Acquire(ctx context.Context, need int64, class string) error {
	a.mu.Lock()
	if len(a.waiters) == 0 && a.used+need <= a.capacity {
		a.used += need
		a.mu.Unlock()
		return nil
	}
	if len(a.waiters) >= a.maxWaiters {
		a.mu.Unlock()
		// Queue full: shed instantly. Queuing deeper would only convert
		// overload into unbounded latency (see DESIGN §5f).
		return &ErrShed{Class: class, Waited: 0, RetryAfter: a.maxWait}
	}
	w := &admitWaiter{need: need, ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()

	start := time.Now()
	timer := time.NewTimer(a.maxWait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return nil
	case <-timer.C:
	case <-ctx.Done():
	}

	a.mu.Lock()
	if w.granted {
		// The grant raced our wakeup: the slot is ours. Keep it unless the
		// context is dead — then hand it straight back.
		a.mu.Unlock()
		if err := ctx.Err(); err != nil {
			a.Release(need)
			return err
		}
		return nil
	}
	w.abandoned = true
	a.removeLocked(w)
	a.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	return &ErrShed{Class: class, Waited: time.Since(start), RetryAfter: a.maxWait}
}

// Release returns need units and grants as many queued waiters as the
// freed capacity covers, in arrival order.
func (a *admission) Release(need int64) {
	a.mu.Lock()
	a.used -= need
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if w.abandoned {
			a.waiters = a.waiters[1:]
			continue
		}
		if a.used+w.need > a.capacity {
			break
		}
		a.used += w.need
		w.granted = true
		close(w.ready)
		a.waiters = a.waiters[1:]
	}
	a.mu.Unlock()
}

// removeLocked drops w from the wait queue (mu held). The queue is
// bounded by maxWaiters, so the linear scan is cheap — and it only runs
// on the already-slow shed path.
func (a *admission) removeLocked(w *admitWaiter) {
	for i, q := range a.waiters {
		if q == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			return
		}
	}
}
