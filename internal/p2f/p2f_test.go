package p2f

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"frugal/internal/obs"
	"frugal/internal/pq"
)

// sliceSource replays a fixed list of batches.
type sliceSource struct {
	mu      sync.Mutex
	batches [][]uint64
	next    int
}

func (s *sliceSource) Next() ([]uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= len(s.batches) {
		return nil, false
	}
	b := s.batches[s.next]
	s.next++
	return b, true
}

// recordSink records every flushed update and sums deltas per key.
type recordSink struct {
	mu      sync.Mutex
	flushes int
	updates int
	sums    map[uint64]float32
	steps   map[uint64][]int64
}

func newRecordSink() *recordSink {
	return &recordSink{sums: make(map[uint64]float32), steps: make(map[uint64][]int64)}
}

func (s *recordSink) FlushBatch(sets []pq.WriteSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ws := range sets {
		s.flushes++
		s.updates += len(ws.Updates)
		for _, u := range ws.Updates {
			s.sums[ws.Key] += u.Delta[0]
			s.steps[ws.Key] = append(s.steps[ws.Key], u.Step)
		}
	}
}

// keySink is a FlushSink that hands every set of a batch to fn in turn.
func keySink(fn func(key uint64, updates []pq.Update)) FlushSink {
	return FlushSinkFunc(func(sets []pq.WriteSet) {
		for _, ws := range sets {
			fn(ws.Key, ws.Updates)
		}
	})
}

func (s *recordSink) sum(key uint64) float32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sums[key]
}

// barrier is a reusable synchronisation barrier for n parties.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

func newTestController(t *testing.T, opt Options) *Controller {
	t.Helper()
	c, err := NewController(opt)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func TestOptionsValidation(t *testing.T) {
	sink := newRecordSink()
	src := &sliceSource{}
	for name, opt := range map[string]Options{
		"no-maxstep": {Sink: sink, Source: src},
		"no-sink":    {MaxStep: 10, Source: src},
		"no-source":  {MaxStep: 10, Sink: sink},
	} {
		if _, err := NewController(opt); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	opt := Options{MaxStep: 5, Sink: newRecordSink(), Source: &sliceSource{}}
	if err := opt.normalize(); err != nil {
		t.Fatal(err)
	}
	if opt.Lookahead != 10 || opt.FlushThreads != 8 || opt.Trainers != 1 || opt.DequeueBatchSize != 64 || opt.KeySpace != 1<<16 {
		t.Fatalf("defaults wrong: %+v", opt)
	}
}

// TestDirectorySizedFromKeySpace pins that the g-entry directory is sized
// from the key space the controller serves, so a lookup walks one or two
// nodes: about keys/4 segments, up to lfht's 2^18 clamp.
func TestDirectorySizedFromKeySpace(t *testing.T) {
	for _, keys := range []int64{1 << 12, 1 << 20, 1 << 24} {
		c, err := NewController(Options{MaxStep: 5, KeySpace: keys, Sink: newRecordSink(), Source: &sliceSource{}})
		if err != nil {
			t.Fatal(err)
		}
		want := int(min(keys/4, 1<<18))
		if got := c.dir.Segments(); got < want {
			t.Fatalf("key space %d: directory has %d segments, want ≥ %d", keys, got, want)
		}
	}
}

// runTrace drives a full single-trainer training loop over the given
// batches: gate → invariant check → commit, with unit deltas.
func runTrace(t *testing.T, c *Controller, delta float32) int {
	t.Helper()
	steps := 0
	for {
		b, ok := c.NextBatch()
		if !ok {
			break
		}
		c.WaitForStep(b.Step)
		if err := c.CheckInvariant(b.Step, b.Keys); err != nil {
			t.Fatal(err)
		}
		upd := make([]KeyDelta, len(b.Keys))
		for i, k := range b.Keys {
			upd[i] = KeyDelta{Key: k, Delta: []float32{delta}}
		}
		c.CommitStep(b.Step, upd)
		steps++
	}
	c.DrainAll()
	return steps
}

func TestFig6Example(t *testing.T) {
	// The walkthrough of Fig 6: L=2, batches k2k3k1 / k2 / k1. k3's update
	// from step 0 is never read again, so P²F defers it (∞ priority) while
	// k2 (read at step 1) and k1 (read at step 2) must flush urgently.
	const k1, k2, k3 = 1, 2, 3
	sink := newRecordSink()
	src := &sliceSource{batches: [][]uint64{{k2, k3, k1}, {k2}, {k1}}}
	c := newTestController(t, Options{
		MaxStep: 3, Lookahead: 2, FlushThreads: 2, Sink: sink, Source: src,
	})
	if got := runTrace(t, c, 1); got != 3 {
		t.Fatalf("trained %d steps, want 3", got)
	}
	// Every update flushed exactly once: k1 and k2 updated at 2 steps each,
	// k3 at one step.
	for key, want := range map[uint64]float32{k1: 2, k2: 2, k3: 1} {
		if got := sink.sum(key); got != want {
			t.Fatalf("key %d flushed sum = %v, want %v", key, got, want)
		}
	}
	st := c.Stats()
	if st.FlushedUpdates != 5 {
		t.Fatalf("FlushedUpdates = %d, want 5", st.FlushedUpdates)
	}
	if st.CommittedSteps != 3 {
		t.Fatalf("CommittedSteps = %d, want 3", st.CommittedSteps)
	}
	if st.DeferredFlushes == 0 {
		t.Fatal("expected at least one deferred (∞ priority) flush — the k₃ case")
	}
}

func TestGateBlocksUntilFlushed(t *testing.T) {
	// With zero flusher threads started manually we can't easily hold the
	// flushers back; instead use a slow sink to widen the window and check
	// that WaitForStep actually reports stall time when the same key is
	// read every step (write-read dependency chain).
	key := uint64(7)
	var batches [][]uint64
	const steps = 50
	for i := 0; i < steps; i++ {
		batches = append(batches, []uint64{key})
	}
	slow := keySink(func(k uint64, u []pq.Update) {
		time.Sleep(200 * time.Microsecond)
	})
	src := &sliceSource{batches: batches}
	c := newTestController(t, Options{
		MaxStep: steps, Lookahead: 4, FlushThreads: 1, Sink: slow, Source: src,
	})
	if got := runTrace(t, c, 1); got != steps {
		t.Fatalf("trained %d steps, want %d", got, steps)
	}
	st := c.Stats()
	if st.Stalls == 0 || st.StallTime == 0 {
		t.Fatalf("a read-after-write chain with a slow sink must stall: %+v", st)
	}
	if st.FlushedUpdates != steps {
		t.Fatalf("FlushedUpdates = %d, want %d", st.FlushedUpdates, steps)
	}
}

func TestInvariantHoldsUnderRandomTraces(t *testing.T) {
	// Property: for random traces (hot keys, random batch sizes) the
	// synchronous-consistency invariant (2) holds at every step, and every
	// committed update is flushed exactly once by DrainAll.
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		const steps = 120
		const keySpace = 40 // small space → heavy write-read conflicts
		batches := make([][]uint64, steps)
		committed := make(map[uint64]int)
		for i := range batches {
			n := 1 + rng.Intn(6)
			seen := map[uint64]bool{}
			for len(batches[i]) < n {
				k := uint64(rng.Intn(keySpace))
				if !seen[k] {
					seen[k] = true
					batches[i] = append(batches[i], k)
					committed[k]++
				}
			}
		}
		sink := newRecordSink()
		src := &sliceSource{batches: batches}
		c := newTestController(t, Options{
			MaxStep: steps, Lookahead: 10, FlushThreads: 4, Sink: sink, Source: src,
		})
		if got := runTrace(t, c, 1); got != steps {
			t.Fatalf("trial %d: trained %d steps, want %d", trial, got, steps)
		}
		for k, want := range committed {
			if got := sink.sum(k); got != float32(want) {
				t.Fatalf("trial %d: key %d flushed sum %v, want %d", trial, k, got, want)
			}
		}
	}
}

func TestMultiTrainerCommits(t *testing.T) {
	// Two trainers share each step; the gate must wait for both commits of
	// step s-1 before opening step s.
	const steps = 30
	const trainers = 2
	var batches [][]uint64
	for i := 0; i < steps; i++ {
		batches = append(batches, []uint64{uint64(i % 5), uint64(5 + i%3)})
	}
	sink := newRecordSink()
	src := &sliceSource{batches: batches}
	c := newTestController(t, Options{
		MaxStep: steps, Trainers: trainers, FlushThreads: 2, Sink: sink, Source: src,
	})

	// readBarrier enforces the synchronous-training contract: no trainer
	// may commit step s until every trainer has finished reading it (the
	// runtime's step barrier plays this role).
	readBarrier := newBarrier(trainers)

	var wg sync.WaitGroup
	work := make([]chan Batch, trainers)
	for w := range work {
		work[w] = make(chan Batch)
	}
	for w := 0; w < trainers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := range work[w] {
				c.WaitForStep(b.Step)
				if err := c.CheckInvariant(b.Step, b.Keys); err != nil {
					t.Error(err)
					return
				}
				readBarrier.wait()
				// Each trainer updates its half of the batch.
				var upd []KeyDelta
				for i, k := range b.Keys {
					if i%trainers == w {
						upd = append(upd, KeyDelta{Key: k, Delta: []float32{1}})
					}
				}
				c.CommitStep(b.Step, upd)
			}
		}(w)
	}
	for {
		b, ok := c.NextBatch()
		if !ok {
			break
		}
		// Broadcast the same batch to both trainers (synchronous step).
		for w := range work {
			work[w] <- b
		}
	}
	for w := range work {
		close(work[w])
	}
	wg.Wait()
	c.DrainAll()
	st := c.Stats()
	if st.CommittedSteps != steps {
		t.Fatalf("CommittedSteps = %d, want %d", st.CommittedSteps, steps)
	}
	if st.FlushedUpdates != steps*2 {
		t.Fatalf("FlushedUpdates = %d, want %d", st.FlushedUpdates, steps*2)
	}
}

func TestTreeHeapBackendEquivalence(t *testing.T) {
	// The P²F controller must behave identically (same flushed sums, same
	// invariant) on the TreeHeap backend — Exp #4 swaps queues like this.
	rng := rand.New(rand.NewSource(99))
	const steps = 80
	batches := make([][]uint64, steps)
	committed := make(map[uint64]int)
	for i := range batches {
		for j := 0; j < 3; j++ {
			k := uint64(rng.Intn(20)*3 + j) // unique within batch
			batches[i] = append(batches[i], k)
			committed[k]++
		}
	}
	sink := newRecordSink()
	src := &sliceSource{batches: batches}
	c := newTestController(t, Options{
		MaxStep: steps, FlushThreads: 3, Sink: sink, Source: src,
		Queue: pq.NewTreeHeap(1024),
	})
	if got := runTrace(t, c, 1); got != steps {
		t.Fatalf("trained %d steps, want %d", got, steps)
	}
	for k, want := range committed {
		if got := sink.sum(k); got != float32(want) {
			t.Fatalf("key %d flushed sum %v, want %d", k, got, want)
		}
	}
}

func TestStopIsIdempotentAndUnblocks(t *testing.T) {
	sink := newRecordSink()
	src := &sliceSource{batches: [][]uint64{{1}, {1}, {1}}}
	c, err := NewController(Options{MaxStep: 3, FlushThreads: 1, Sink: sink, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Stop()
	c.Stop() // idempotent
	// WaitForStep after stop must not hang.
	done := make(chan struct{})
	go func() {
		c.WaitForStep(2)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitForStep hung after Stop")
	}
}

func TestDoubleStartPanics(t *testing.T) {
	sink := newRecordSink()
	src := &sliceSource{batches: nil}
	c, err := NewController(Options{MaxStep: 1, Sink: sink, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double Start")
		}
	}()
	c.Start()
}

func TestStatsSnapshot(t *testing.T) {
	sink := newRecordSink()
	src := &sliceSource{batches: [][]uint64{{1, 2}, {2, 3}}}
	c := newTestController(t, Options{MaxStep: 2, FlushThreads: 2, Sink: sink, Source: src})
	runTrace(t, c, 1)
	st := c.Stats()
	if st.PrefetchedSteps != 2 || st.CommittedSteps != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.FlushedUpdates != 4 {
		t.Fatalf("FlushedUpdates = %d, want 4", st.FlushedUpdates)
	}
	if st.UrgentFlushes+st.DeferredFlushes == 0 {
		t.Fatal("flush counters not incremented")
	}
}

// TestGatePropertyQuick drives randomly shaped traces (testing/quick
// supplies the shape parameters) through a full gate/commit/flush cycle
// and checks the global P²F accounting: every committed update is flushed
// exactly once, the invariant holds at every gate, and the queue drains.
func TestGatePropertyQuick(t *testing.T) {
	f := func(seed int64, rawKeys uint8, rawBatch uint8, rawThreads uint8) bool {
		keySpace := int(rawKeys%30) + 2
		batch := int(rawBatch%5) + 1
		if batch > keySpace {
			batch = keySpace // unique keys per batch cannot exceed the space
		}
		threads := int(rawThreads%3) + 1
		const steps = 40
		rng := rand.New(rand.NewSource(seed))
		batches := make([][]uint64, steps)
		total := 0
		for i := range batches {
			seen := map[uint64]bool{}
			for len(batches[i]) < batch {
				k := uint64(rng.Intn(keySpace))
				if !seen[k] {
					seen[k] = true
					batches[i] = append(batches[i], k)
					total++
				}
			}
		}
		sink := newRecordSink()
		c, err := NewController(Options{
			MaxStep: steps, Lookahead: 3, FlushThreads: threads,
			Sink: sink, Source: &sliceSource{batches: batches},
		})
		if err != nil {
			return false
		}
		c.Start()
		defer c.Stop()
		for {
			b, ok := c.NextBatch()
			if !ok {
				break
			}
			c.WaitForStep(b.Step)
			if err := c.CheckInvariant(b.Step, b.Keys); err != nil {
				t.Log(err)
				return false
			}
			upd := make([]KeyDelta, len(b.Keys))
			for i, k := range b.Keys {
				upd[i] = KeyDelta{Key: k, Delta: []float32{1}}
			}
			c.CommitStep(b.Step, upd)
		}
		c.DrainAll()
		st := c.Stats()
		if st.FlushedUpdates != int64(total) {
			t.Logf("flushed %d, want %d", st.FlushedUpdates, total)
			return false
		}
		return c.Queue().Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialRunNeedsNoRescan trains one trainer through 3,000 steps
// over a small key space, with the flusher pool draining alongside, and
// checks that the queue's self-healing rescan never ran: with the gate
// raising the lower bound only past drained steps, no entry hides below
// it, and entries on their way into a slot do not trigger the rescan.
func TestSequentialRunNeedsNoRescan(t *testing.T) {
	const steps, keys, batch = 3000, 400, 24
	rng := rand.New(rand.NewSource(7))
	batches := make([][]uint64, steps)
	for i := range batches {
		for j := 0; j < batch; j++ {
			batches[i] = append(batches[i], uint64(rng.Intn(keys)))
		}
	}
	o := obs.New(obs.Options{TraceCapacity: -1})
	c := newTestController(t, Options{
		MaxStep: steps, Lookahead: 10, FlushThreads: 2, Obs: o,
		Sink: newRecordSink(), Source: &sliceSource{batches: batches},
	})
	if got := runTrace(t, c, 1); got != steps {
		t.Fatalf("trained %d steps, want %d", got, steps)
	}
	s := o.Snapshot()
	if s.PQDequeues == 0 {
		t.Fatal("the queue saw no traffic")
	}
	if s.PQRescans != 0 {
		t.Fatalf("%d self-healing rescans in a sequential run, want 0", s.PQRescans)
	}
}
