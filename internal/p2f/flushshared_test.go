package p2f

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frugal/internal/pq"
)

// TestFlushKeySharedCoalesces releases a pack of concurrent refreshers at
// one hot key with pending writes and a deliberately slow sink: exactly
// one of them must run the flush, the rest must piggyback on it. The
// controller is never Start()ed, so no flusher pool races the serving
// path — every sink call below is FlushKey traffic. (The name is the
// shared, singleflight flush it pins: FlushKey is the coalescing one.)
func TestFlushKeySharedCoalesces(t *testing.T) {
	const key, readers = uint64(7), 16
	var flushes atomic.Int64
	sink := keySink(func(k uint64, updates []pq.Update) {
		if k == key {
			flushes.Add(1)
		}
		// Hold the flush open long enough that every reader released below
		// arrives while it is in flight.
		time.Sleep(50 * time.Millisecond)
	})
	src := &sliceSource{batches: [][]uint64{{key}}}
	c, err := NewController(Options{MaxStep: 1, Sink: sink, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	c.CommitStep(0, []KeyDelta{{Key: key, Delta: []float32{1}}})

	start := make(chan struct{})
	var wg sync.WaitGroup
	var reportedFlushed atomic.Int64
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if c.FlushKey(key) {
				reportedFlushed.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()

	// One CommitStep means one non-empty write set: however the readers
	// interleave, the sink must see exactly one flush of the hot key.
	if got := flushes.Load(); got != 1 {
		t.Fatalf("sink flushes = %d, want 1 (refresh storm not coalesced)", got)
	}
	// Followers inherit the leader's outcome, so piggybacked callers also
	// report flushed=true.
	if got := reportedFlushed.Load(); got < 1 {
		t.Fatalf("no caller reported a flush")
	}
	co := c.Stats().CoalescedFlushes
	if co < 1 || co > readers-1 {
		t.Fatalf("CoalescedFlushes = %d, want in [1, %d]", co, readers-1)
	}
	// The storm is over and the entry drained: the next shared flush finds
	// nothing and says so.
	if c.FlushKey(key) {
		t.Fatal("drained key reported another flush")
	}
}

// TestFlushKeySharedUntouchedKey pins the trivial path: a key the
// training trace never touched has no g-entry and nothing to flush.
func TestFlushKeySharedUntouchedKey(t *testing.T) {
	c, err := NewController(Options{
		MaxStep: 1,
		Sink:    FlushSinkFunc(func([]pq.WriteSet) { t.Error("sink called for untouched key") }),
		Source:  &sliceSource{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.FlushKey(42) {
		t.Fatal("untouched key reported a flush")
	}
	if co := c.Stats().CoalescedFlushes; co != 0 {
		t.Fatalf("CoalescedFlushes = %d, want 0", co)
	}
}
