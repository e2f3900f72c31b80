package pq

import (
	"sync"
	"sync/atomic"
	"testing"
)

// flushClaim is the p2f flusher's validation protocol, reproduced here to
// test ProcessBatch's contract directly.
func flushClaim(flushed *atomic.Int64) func(g *GEntry, p int64) bool {
	return func(g *GEntry, p int64) bool {
		if !g.InQueue || g.Priority != p {
			return false
		}
		g.InQueue = false
		if len(g.TakeWrites()) > 0 {
			flushed.Add(1)
		}
		return true
	}
}

// claim is one entry a ProcessBatch call claimed, with the slot priority
// it was claimed at.
type claim struct {
	g *GEntry
	p int64
}

// take claims up to max minimum-priority entries through ProcessBatch under
// flushClaim's contract and returns them in claim order. It counts claims
// in the visit, as the p2f flusher does: ProcessBatch's return counts the
// nodes it unlinked, and a concurrent processor may unlink a node this
// call claimed, so under concurrency a call can claim more than max.
// Culled residues do not count toward max; take stops once a call neither
// processes nor claims anything.
func take(q Queue, max int) []claim {
	var flushed atomic.Int64
	fc := flushClaim(&flushed)
	var got []claim
	for len(got) < max {
		before := len(got)
		n := q.ProcessBatch(max-len(got), func(g *GEntry, p int64) bool {
			if !fc(g, p) {
				return false
			}
			got = append(got, claim{g, p})
			return true
		})
		if n == 0 && len(got) == before {
			break
		}
	}
	return got
}

// pop claims one minimum-priority entry through ProcessBatch, or reports
// ok=false when the queue has nothing to claim. Single-goroutine use only:
// a concurrent caller uses take, which keeps every claim.
func pop(q Queue) (g *GEntry, p int64, ok bool) {
	if got := take(q, 1); len(got) > 0 {
		return got[0].g, got[0].p, true
	}
	return nil, 0, false
}

func TestProcessBatchDrainsInPriorityOrder(t *testing.T) {
	for name, q := range queues(t, 1000) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 30; i++ {
				g := NewGEntry(uint64(i))
				g.Mu.Lock()
				g.AddWriteState(0, []float32{1}, 0)
				q.Enqueue(g, int64(i))
				g.Mu.Unlock()
			}
			var flushed atomic.Int64
			var order []int64
			n := q.ProcessBatch(10, func(g *GEntry, p int64) bool {
				order = append(order, p)
				g.InQueue = false
				g.TakeWrites()
				return true
			})
			if n != 10 {
				t.Fatalf("processed %d, want 10", n)
			}
			for i, p := range order {
				if p != int64(i) {
					t.Fatalf("priority order broken: %v", order)
				}
			}
			// Rest drains too.
			if rest := q.ProcessBatch(100, flushClaim(&flushed)); rest != 20 {
				t.Fatalf("rest = %d, want 20", rest)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after full drain", q.Len())
			}
		})
	}
}

func TestProcessBatchVisibilityBeforeRemoval(t *testing.T) {
	// The gate-soundness property: while fn runs (the flush), Top() must
	// still see the entry — the queue may not hide it until fn returned.
	q := mustTwoLevel(t, 100)
	g := NewGEntry(1)
	g.Mu.Lock()
	g.AddWriteState(0, []float32{1}, 0)
	q.Enqueue(g, 5)
	g.Mu.Unlock()

	sawDuringFlush := make(chan int64, 1)
	done := make(chan struct{})
	n := q.ProcessBatch(1, func(e *GEntry, p int64) bool {
		// Observe Top from another goroutine mid-flush.
		go func() {
			sawDuringFlush <- q.Top()
			close(done)
		}()
		<-done
		e.InQueue = false
		e.TakeWrites()
		return true
	})
	if n != 1 {
		t.Fatalf("processed %d", n)
	}
	if top := <-sawDuringFlush; top != 5 {
		t.Fatalf("Top during flush = %d, want 5 (entry must stay visible)", top)
	}
	if top := q.Top(); top != Inf {
		t.Fatalf("Top after flush = %d, want Inf", top)
	}
}

func TestProcessBatchCullsResidues(t *testing.T) {
	q := mustTwoLevel(t, 100)
	g := NewGEntry(1)
	g.Mu.Lock()
	g.AddWriteState(0, []float32{1}, 0)
	q.Enqueue(g, 10)
	q.AdjustPriority(g, 10, 40) // may leave a residue in slot 10
	g.Mu.Unlock()
	var flushed atomic.Int64
	total := 0
	for {
		n := q.ProcessBatch(8, flushClaim(&flushed))
		if n == 0 {
			break
		}
		total += n
	}
	if flushed.Load() != 1 {
		t.Fatalf("flushed %d times, want exactly 1", flushed.Load())
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	_ = total
}

func TestProcessBatchConcurrentExactlyOnce(t *testing.T) {
	for name, q := range queues(t, 1<<16) {
		t.Run(name, func(t *testing.T) {
			const entries = 4000
			for i := 0; i < entries; i++ {
				g := NewGEntry(uint64(i))
				g.Mu.Lock()
				g.AddWriteState(0, []float32{1}, 0)
				q.Enqueue(g, int64(i%1024))
				g.Mu.Unlock()
			}
			var flushed atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					fn := flushClaim(&flushed)
					for {
						if n := q.ProcessBatch(64, fn); n == 0 {
							if q.Len() == 0 {
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if got := flushed.Load(); got != entries {
				t.Fatalf("flushed %d write sets, want exactly %d", got, entries)
			}
		})
	}
}

func TestProcessBatchEmptyAndZeroMax(t *testing.T) {
	for name, q := range queues(t, 10) {
		t.Run(name, func(t *testing.T) {
			if n := q.ProcessBatch(5, func(*GEntry, int64) bool { return true }); n != 0 {
				t.Fatalf("empty queue processed %d", n)
			}
			enq(q, NewGEntry(1), 3)
			if n := q.ProcessBatch(0, func(*GEntry, int64) bool { return true }); n != 0 {
				t.Fatalf("max=0 processed %d", n)
			}
		})
	}
}

// TestProcessBatchSelfHealsBelowRaisedLowerBound plants a live finite
// entry below a raised scan lower bound — the outcome of the
// Enqueue/RaiseLowerBound race the compressed scan range admits — and
// asserts one flusher batch still claims it at its own slot: the scan's
// fallback must reach below the range before it settles for ∞ or nothing.
func TestProcessBatchSelfHealsBelowRaisedLowerBound(t *testing.T) {
	q := mustTwoLevel(t, 100)
	g := NewGEntry(1)
	g.Mu.Lock()
	g.AddWriteState(0, []float32{1}, 0)
	q.Enqueue(g, 5)
	g.Mu.Unlock()
	q.RaiseLowerBound(20)

	var flushed atomic.Int64
	fc := flushClaim(&flushed)
	var slots []int64
	n := q.ProcessBatch(8, func(e *GEntry, p int64) bool {
		slots = append(slots, p)
		return fc(e, p)
	})
	if n != 1 || flushed.Load() != 1 || len(slots) != 1 || slots[0] != 5 {
		t.Fatalf("ProcessBatch = %d nodes, %d flushed, slots %v; want 1, 1, [5]", n, flushed.Load(), slots)
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after the claim", q.Len())
	}
}
