package pq

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// mustTwoLevel builds a two-level queue whose ring covers window
// priorities.
func mustTwoLevel(t testing.TB, window int64) *TwoLevelPQ {
	q, err := NewTwoLevelPQ(TwoLevelOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// queues returns both implementations so every contract test runs against
// the two-level PQ and the TreeHeap baseline. The two-level queue's ring
// covers window priorities.
func queues(t testing.TB, window int64) map[string]Queue {
	return map[string]Queue{
		"twolevel": mustTwoLevel(t, window),
		"treeheap": NewTreeHeap(16),
	}
}

func enq(q Queue, g *GEntry, p int64) {
	g.Mu.Lock()
	q.Enqueue(g, p)
	g.Mu.Unlock()
}

func adj(q Queue, g *GEntry, p int64) {
	g.Mu.Lock()
	q.AdjustPriority(g, g.Priority, p)
	g.Mu.Unlock()
}

func TestGEntryPriorityEquation(t *testing.T) {
	g := NewGEntry(1)
	g.Mu.Lock()
	defer g.Mu.Unlock()
	// Empty R and W → ∞.
	if p := g.ComputePriority(); p != Inf {
		t.Fatalf("empty entry priority = %d, want Inf", p)
	}
	// R non-empty, W empty → ∞ (nothing pending to flush).
	g.AddRead(5)
	if p := g.ComputePriority(); p != Inf {
		t.Fatalf("W=∅ priority = %d, want Inf", p)
	}
	// Both non-empty → min(R).
	g.AddWriteState(3, []float32{1}, 0)
	if p := g.ComputePriority(); p != 5 {
		t.Fatalf("priority = %d, want 5", p)
	}
	g.AddRead(2)
	if p := g.ComputePriority(); p != 2 {
		t.Fatalf("priority after AddRead(2) = %d, want 2", p)
	}
	// W non-empty, R empty → ∞ (deferred flush, the k₃ case of Fig 6).
	g.RemoveRead(2)
	g.RemoveRead(5)
	if p := g.ComputePriority(); p != Inf {
		t.Fatalf("R=∅ priority = %d, want Inf", p)
	}
}

func TestGEntryReadSetOps(t *testing.T) {
	g := NewGEntry(7)
	g.Mu.Lock()
	defer g.Mu.Unlock()
	for _, s := range []int64{5, 1, 3, 1, 5} { // duplicates are idempotent
		g.AddRead(s)
	}
	want := []int64{1, 3, 5}
	if len(g.R) != len(want) {
		t.Fatalf("R = %v, want %v", g.R, want)
	}
	for i := range want {
		if g.R[i] != want[i] {
			t.Fatalf("R = %v, want %v", g.R, want)
		}
	}
	if !g.RemoveRead(3) {
		t.Fatal("RemoveRead(3) should succeed")
	}
	if g.RemoveRead(3) {
		t.Fatal("second RemoveRead(3) should fail")
	}
	if g.RemoveRead(4) {
		t.Fatal("RemoveRead(4) of absent step should fail")
	}
	if len(g.R) != 2 || g.R[0] != 1 || g.R[1] != 5 {
		t.Fatalf("R = %v, want [1 5]", g.R)
	}
}

func TestGEntryTakeWrites(t *testing.T) {
	g := NewGEntry(1)
	g.Mu.Lock()
	g.AddWriteState(0, []float32{1}, 0)
	g.AddWriteState(1, []float32{2}, 0)
	w := g.TakeWrites()
	g.Mu.Unlock()
	if len(w) != 2 || w[0].Step != 0 || w[1].Step != 1 {
		t.Fatalf("TakeWrites = %v", w)
	}
	if len(g.W) != 0 {
		t.Fatal("W should be empty after TakeWrites")
	}
}

func TestGEntryString(t *testing.T) {
	g := NewGEntry(3)
	if s := g.String(); s == "" {
		t.Fatal("empty String()")
	}
	g.Priority = 7
	if s := g.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestQueueOrdering(t *testing.T) {
	for name, q := range queues(t, 100) {
		t.Run(name, func(t *testing.T) {
			prios := []int64{42, 7, Inf, 0, 99, 13}
			for i, p := range prios {
				enq(q, NewGEntry(uint64(i)), p)
			}
			if q.Len() != len(prios) {
				t.Fatalf("Len = %d, want %d", q.Len(), len(prios))
			}
			if top := q.Top(); top != 0 {
				t.Fatalf("Top = %d, want 0", top)
			}
			var got []int64
			for {
				_, p, ok := pop(q)
				if !ok {
					break
				}
				got = append(got, p)
			}
			want := append([]int64{}, prios...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("dequeued %d entries, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dequeue order %v, want %v", got, want)
				}
			}
			if top := q.Top(); top != Inf {
				t.Fatalf("Top on empty = %d, want Inf", top)
			}
		})
	}
}

func TestQueueAdjustPriority(t *testing.T) {
	for name, q := range queues(t, 100) {
		t.Run(name, func(t *testing.T) {
			a, b := NewGEntry(1), NewGEntry(2)
			enq(q, a, 10)
			enq(q, b, 20)
			adj(q, a, 50) // a: 10 → 50; b now smallest
			g, p, ok := pop(q)
			if !ok || g.Key != 2 || p != 20 {
				t.Fatalf("ProcessBatch = (%v,%d,%v), want b@20", g, p, ok)
			}
			g, p, ok = pop(q)
			if !ok || g.Key != 1 || p != 50 {
				t.Fatalf("ProcessBatch = (%v,%d,%v), want a@50", g, p, ok)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after drain", q.Len())
			}
		})
	}
}

func TestQueueAdjustToInf(t *testing.T) {
	for name, q := range queues(t, 100) {
		t.Run(name, func(t *testing.T) {
			a := NewGEntry(1)
			enq(q, a, 5)
			adj(q, a, Inf)
			if top := q.Top(); top != Inf {
				t.Fatalf("Top = %d, want Inf after deferring the only entry", top)
			}
			g, p, ok := pop(q)
			if !ok || p != Inf || g.Key != 1 {
				t.Fatalf("deferred entry should still drain: (%v,%d,%v)", g, p, ok)
			}
		})
	}
}

func TestQueueDequeueBatch(t *testing.T) {
	for name, q := range queues(t, 1000) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 50; i++ {
				enq(q, NewGEntry(uint64(i)), int64(i))
			}
			batch := take(q, 20)
			if len(batch) != 20 {
				t.Fatalf("batch len = %d, want 20", len(batch))
			}
			rest := take(q, 100)
			if len(rest) != 30 {
				t.Fatalf("rest len = %d, want 30", len(rest))
			}
			// Batch respects priority order: every priority in the first
			// batch is ≤ every priority in the second.
			maxFirst, minRest := int64(-1), Inf
			for _, c := range batch {
				if c.g.Priority > maxFirst {
					maxFirst = c.g.Priority
				}
			}
			for _, c := range rest {
				if c.g.Priority < minRest {
					minRest = c.g.Priority
				}
			}
			if maxFirst > minRest {
				t.Fatalf("priority inversion across batches: %d > %d", maxFirst, minRest)
			}
		})
	}
}

func TestQueueEmptyDequeue(t *testing.T) {
	for name, q := range queues(t, 10) {
		t.Run(name, func(t *testing.T) {
			if _, _, ok := pop(q); ok {
				t.Fatal("ProcessBatch(1) on empty should claim nothing")
			}
			if got := take(q, 5); len(got) != 0 {
				t.Fatal("ProcessBatch(5) on empty should claim nothing")
			}
			if q.Top() != Inf {
				t.Fatal("Top on empty should be Inf")
			}
		})
	}
}

// TestSlotTableSizing pins how the default queue (the one P²F builds)
// sizes its slot tables: a finite slot holds at most one step's keys and
// gets a small directory, the ∞ slot holds all deferred work and keeps a
// large one.
func TestSlotTableSizing(t *testing.T) {
	q := mustTwoLevel(t, 100)
	for p := int64(0); p < 100; p++ {
		q.Enqueue(NewGEntry(uint64(p)), p)
	}
	q.Enqueue(NewGEntry(1000), Inf)
	for _, p := range []int64{0, 50, 99} {
		if n := q.slot(p).t.Load().Segments(); n > 64 {
			t.Fatalf("finite slot %d has %d segments, want ≤ 64", p, n)
		}
	}
	if n := q.inf.t.Load().Segments(); n < 1024 {
		t.Fatalf("∞ slot has %d segments, want ≥ 1024", n)
	}
}

func TestTwoLevelPQValidation(t *testing.T) {
	if _, err := NewTwoLevelPQ(TwoLevelOptions{Window: -1}); err == nil {
		t.Fatal("negative Window should error")
	}
	if _, err := NewTwoLevelPQ(TwoLevelOptions{Window: 1 << 30}); err == nil {
		t.Fatal("huge Window should error")
	}
	q := mustTwoLevel(t, 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative priority should panic")
			}
		}()
		enq(q, NewGEntry(1), -2)
	}()
}

func TestTwoLevelScanCompressionEquivalence(t *testing.T) {
	// With and without scan-range compression the queue must drain the
	// same entries in the same priority order.
	on := mustTwoLevel(t, 5000)
	off, err := NewTwoLevelPQ(TwoLevelOptions{Window: 5000, DisableScanCompression: true})
	if err != nil {
		t.Fatal(err)
	}
	if !on.compress || off.compress {
		t.Fatal("compression flags wrong")
	}
	rng := rand.New(rand.NewSource(42))
	var prios []int64
	for i := 0; i < 500; i++ {
		p := int64(rng.Intn(5000))
		prios = append(prios, p)
		enq(on, NewGEntry(uint64(i)), p)
		enq(off, NewGEntry(uint64(i)), p)
	}
	sort.Slice(prios, func(i, j int) bool { return prios[i] < prios[j] })
	for i, want := range prios {
		_, p1, ok1 := pop(on)
		_, p2, ok2 := pop(off)
		if !ok1 || !ok2 || p1 != want || p2 != want {
			t.Fatalf("drain %d: on=(%d,%v) off=(%d,%v) want %d", i, p1, ok1, p2, ok2, want)
		}
	}
}

func TestTwoLevelStaleResidueCulled(t *testing.T) {
	q := mustTwoLevel(t, 100)
	g := NewGEntry(1)
	enq(q, g, 10)
	adj(q, g, 60)
	// The §3.4 protocol inserts-then-deletes, so the old slot may hold a
	// residue; whatever happens, the entry must drain exactly once at its
	// final priority.
	got, p, ok := pop(q)
	if !ok || got.Key != 1 || p != 60 {
		t.Fatalf("ProcessBatch = (%v,%d,%v), want key1@60", got, p, ok)
	}
	if _, _, ok := pop(q); ok {
		t.Fatal("entry must not drain twice")
	}
}

// TestQueueConcurrentStress runs the queue in the shape P²F drives it:
// a driver plays the gate, raising the lower bound past step s once Top
// has moved beyond it; producers enqueue and adjust entries at
// priorities drawn from the live window above the current step; four
// consumers claim through ProcessBatch. Every entry must be claimed
// exactly once. A producer that read the step before the driver moved
// on files its entry below the bound, which exercises the self-healing
// scan and, on the ring, slot recycling racing with inserts.
func TestQueueConcurrentStress(t *testing.T) {
	const window = 16
	for name, q := range queues(t, 2*window) {
		t.Run(name, func(t *testing.T) {
			const (
				producers = 4
				perP      = 3000
			)
			total := producers * perP
			entries := make([]*GEntry, total)
			for i := range entries {
				entries[i] = NewGEntry(uint64(i))
			}
			raiser, _ := q.(interface{ RaiseLowerBound(int64) })
			var step atomic.Int64
			var claimed atomic.Int64
			var wg sync.WaitGroup
			done := make(chan struct{})
			// The gate driver.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if s := step.Load(); q.Top() > s {
						step.Store(s + 1)
						if raiser != nil {
							raiser.RaiseLowerBound(s + 1)
						}
					} else {
						time.Sleep(20 * time.Microsecond)
					}
				}
			}()
			// Consumers.
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if got := take(q, 1); len(got) > 0 {
							for _, c := range got {
								if c.g == nil {
									t.Error("nil entry claimed")
									return
								}
							}
							claimed.Add(int64(len(got)))
							continue
						}
						select {
						case <-done:
							for {
								got := take(q, 1)
								if len(got) == 0 {
									return
								}
								claimed.Add(int64(len(got)))
							}
						default:
							time.Sleep(100 * time.Microsecond)
						}
					}
				}()
			}
			// Producers enqueue inside the live window, then randomly
			// adjust within it.
			var pwg sync.WaitGroup
			for p := 0; p < producers; p++ {
				pwg.Add(1)
				go func(p int) {
					defer pwg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					for i := 0; i < perP; i++ {
						g := entries[p*perP+i]
						g.Mu.Lock()
						q.Enqueue(g, step.Load()+1+int64(rng.Intn(window)))
						g.Mu.Unlock()
						if rng.Intn(3) == 0 {
							g.Mu.Lock()
							if g.InQueue {
								q.AdjustPriority(g, g.Priority, step.Load()+1+int64(rng.Intn(window)))
							}
							g.Mu.Unlock()
						}
					}
				}(p)
			}
			pwg.Wait()
			close(done)
			wg.Wait()
			if got := claimed.Load(); got != int64(total) {
				t.Fatalf("claimed %d entries, want exactly %d", got, total)
			}
			if q.Len() != 0 {
				t.Fatalf("Len = %d after drain", q.Len())
			}
		})
	}
}

// Property: for any set of priorities, the queue drains them in
// non-decreasing order with nothing lost or duplicated.
func TestQueueDrainProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		q := mustTwoLevel(t, 1<<16)
		h := NewTreeHeap(len(raw))
		for i, r := range raw {
			enq(q, NewGEntry(uint64(i)), int64(r))
			enq(h, NewGEntry(uint64(i)), int64(r))
		}
		for _, impl := range []Queue{q, h} {
			last := int64(-1)
			n := 0
			for {
				_, p, ok := pop(impl)
				if !ok {
					break
				}
				if p < last {
					return false
				}
				last = p
				n++
			}
			if n != len(raw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- Benchmarks backing Exp #4's real-concurrency claims -------------------

// benchQueueMixed models the P²F access pattern: a shared training-step
// cursor advances, enqueues land within the lookahead window [step,
// step+L], one-entry ProcessBatch calls under the flusher's claim drain
// from the front, and the controller raises the scan lower bound as steps
// complete — exactly what WaitForStep does.
func benchQueueMixed(b *testing.B, mk func(window int64) Queue) {
	const L = 10
	q := mk(2 * (L + 2))
	raiser, _ := q.(interface{ RaiseLowerBound(int64) })
	var step atomic.Int64
	var keys atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(int64(keys.Add(1))))
		var flushed atomic.Int64
		claim := flushClaim(&flushed)
		for pb.Next() {
			switch rng.Intn(4) {
			case 0, 1:
				g := NewGEntry(keys.Add(1))
				g.Mu.Lock()
				q.Enqueue(g, step.Load()+int64(rng.Intn(L))+1)
				g.Mu.Unlock()
			case 2:
				q.ProcessBatch(1, claim)
			case 3:
				// The gate: advance the step cursor (and the scan window)
				// only when the front of the queue has moved past it —
				// exactly WaitForStep's condition.
				s := step.Load()
				if q.Top() > s {
					if step.CompareAndSwap(s, s+1) && raiser != nil {
						raiser.RaiseLowerBound(s + 1)
					}
				}
			}
		}
	})
}

// BenchmarkTwoLevelPQMixed measures the two-level queue under the real
// P²F access pattern (Exp #4's wall-clock counterpart).
func BenchmarkTwoLevelPQMixed(b *testing.B) {
	benchQueueMixed(b, func(window int64) Queue {
		return mustTwoLevel(b, window)
	})
}

// BenchmarkTreeHeapMixed is the baseline counterpart.
func BenchmarkTreeHeapMixed(b *testing.B) {
	benchQueueMixed(b, func(int64) Queue { return NewTreeHeap(1 << 16) })
}

// BenchmarkPQScanRangeCompression is the §3.4 ablation: the cost of one
// flusher claim (a one-entry ProcessBatch) with and without the bounded
// scan, late in a long training run. Live priorities fill half the ring,
// the ratio the P²F controller sizes it for: compression starts the scan
// at the lower bound, while the "off" mode covers all R slots below the
// largest priority and so first passes the empty half.
func BenchmarkPQScanRangeCompression(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			const live = 1024
			q, err := NewTwoLevelPQ(TwoLevelOptions{
				Window:                 2 * live,
				DisableScanCompression: mode.disable,
			})
			if err != nil {
				b.Fatal(err)
			}
			base := int64(1<<20 - 4096)
			// The controller has passed the gate for every step below the
			// window.
			q.RaiseLowerBound(base)
			for i := 0; i < 4*live; i++ {
				enq(q, NewGEntry(uint64(i)), base+int64(i%live))
			}
			var flushed atomic.Int64
			fc := flushClaim(&flushed)
			var got *GEntry
			var gotP int64
			claim := func(g *GEntry, p int64) bool {
				if !fc(g, p) {
					return false
				}
				got, gotP = g, p
				return true
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got = nil
				q.ProcessBatch(1, claim)
				g, p := got, gotP
				if g == nil {
					b.StopTimer()
					g = NewGEntry(uint64(i))
					p = base + int64(i%live)
					b.StartTimer()
				}
				g.Mu.Lock()
				q.Enqueue(g, p)
				g.Mu.Unlock()
			}
		})
	}
}

// BenchmarkPQDequeueBatchSize is the batched-dequeue ablation of Fig 7:
// larger flusher batches (ProcessBatch's max) amortise the priority-index
// scan.
func BenchmarkPQDequeueBatchSize(b *testing.B) {
	for _, batch := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			q := mustTwoLevel(b, 1024)
			for i := 0; i < 8192; i++ {
				enq(q, NewGEntry(uint64(i)), int64(i%1024))
			}
			var flushed atomic.Int64
			claim := flushClaim(&flushed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if q.ProcessBatch(batch, claim) == 0 {
					b.StopTimer()
					for j := 0; j < 8192; j++ {
						enq(q, NewGEntry(uint64(j)), int64(j%1024))
					}
					b.StartTimer()
				}
			}
		})
	}
}
