package p2f

import (
	"sync"
	"testing"

	"frugal/internal/pq"
)

// TestFlushHookFiresOnEveryFlushPath checks the index-maintenance feed:
// every path that pushes a write set through the sink — the flusher pool,
// the serving layer's FlushKey, and the degraded write-through commit —
// notifies each registered hook with the flushed key, after the sink has
// applied the writes.
func TestFlushHookFiresOnEveryFlushPath(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[uint64]int)
	sinkApplied := make(map[uint64]int)
	sink := FlushSinkFunc(func(k uint64, updates []pq.Update) {
		mu.Lock()
		sinkApplied[k]++
		mu.Unlock()
	})
	c, err := NewController(Options{MaxStep: 4, Sink: sink, Source: &sliceSource{}})
	if err != nil {
		t.Fatal(err)
	}
	hook := func(k uint64) {
		mu.Lock()
		// Ordering contract: by the time the hook fires the sink has
		// already applied this flush.
		if sinkApplied[k] <= seen[k] {
			t.Errorf("hook for key %d fired before its sink flush", k)
		}
		seen[k]++
		mu.Unlock()
	}
	c.AddFlushHook(hook)
	c.AddFlushHook(func(uint64) {}) // a second hook must not displace the first

	// Path 1: synchronous FlushKey (the fresh-read path).
	c.CommitStep(0, []KeyDelta{{Key: 1, Delta: []float32{1}}})
	if !c.FlushKey(1) {
		t.Fatal("FlushKey(1) flushed nothing")
	}
	// Path 2: drainSync / flushBatch (the flusher-pool path).
	c.CommitStep(1, []KeyDelta{{Key: 2, Delta: []float32{1}}})
	c.DrainAll()

	mu.Lock()
	defer mu.Unlock()
	if seen[1] != 1 || seen[2] != 1 {
		t.Fatalf("hook notifications = %v, want keys 1 and 2 once each", seen)
	}
}
