package p2f

import (
	"sync"
	"testing"
	"time"

	"frugal/internal/pq"
)

// heldSink is a FlushSink whose FlushBatch blocks until released, so a
// test can hold a flusher batch mid-apply: claimed out of the queue, not
// yet on the host.
type heldSink struct {
	entered chan []uint64
	release chan struct{}
	mu      sync.Mutex
	steps   map[uint64][]int64
}

func newHeldSink() *heldSink {
	return &heldSink{entered: make(chan []uint64, 16), release: make(chan struct{}),
		steps: make(map[uint64][]int64)}
}

func (s *heldSink) FlushBatch(sets []pq.WriteSet) {
	keys := make([]uint64, len(sets))
	for i := range sets {
		keys[i] = sets[i].Key
	}
	s.entered <- keys
	<-s.release
	s.mu.Lock()
	for _, ws := range sets {
		for _, u := range ws.Updates {
			s.steps[ws.Key] = append(s.steps[ws.Key], u.Step)
		}
	}
	s.mu.Unlock()
}

// TestInFlightFloorHoldsGate pins the gate's in-flight floor: once a
// flusher has claimed a write set the queue's Top() no longer shows it,
// yet the gate for the step that reads the key stays closed, the key
// reports itself stale, FlushKey waits, and the invariant check counts it
// as pending — until the batch lands.
func TestInFlightFloorHoldsGate(t *testing.T) {
	const key = 7
	sink := newHeldSink()
	c, err := NewController(Options{
		MaxStep: 4, Lookahead: 4, FlushThreads: 2, Trainers: 1,
		Sink:   sink,
		Source: &sliceSource{batches: [][]uint64{{key}, {key}, {key}, {key}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	released := false
	defer func() {
		if !released {
			close(sink.release)
		}
	}()

	if b, ok := c.NextBatch(); !ok || b.Step != 0 {
		t.Fatalf("first batch = %+v, %v", b, ok)
	}
	c.WaitForStep(0)
	c.CommitStep(0, []KeyDelta{{Key: key, Delta: []float32{1}}})
	select {
	case keys := <-sink.entered:
		if len(keys) != 1 || keys[0] != key {
			t.Fatalf("held batch = %v", keys)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no flusher claimed the write set")
	}

	if top := c.Queue().Top(); top != pq.Inf {
		t.Fatalf("Top() = %d with the only write set in flight, want Inf", top)
	}
	if lag, wm := c.RowStaleness(key); lag != 1 || wm != 0 {
		t.Fatalf("RowStaleness = (%d, %d) mid-flight, want (1, 0)", lag, wm)
	}
	if err := c.CheckInvariant(1, []uint64{key}); err == nil {
		t.Fatal("CheckInvariant passed with the key's write set in flight")
	}
	// Take step 1's batch before its gate, as a trainer does: the lookahead
	// loop registers a batch's reads before it publishes the batch, so the
	// gate sees step 1 read key.
	if b, ok := c.NextBatch(); !ok || b.Step != 1 {
		t.Fatalf("second batch = %+v, %v", b, ok)
	}
	gate := make(chan struct{})
	go func() {
		c.WaitForStep(1)
		close(gate)
	}()
	flushed := make(chan bool)
	go func() { flushed <- c.FlushKey(key) }()
	select {
	case <-gate:
		t.Fatal("gate for step 1 opened while the step-0 write was in flight")
	case <-flushed:
		t.Fatal("FlushKey returned while the key's write set was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	released = true
	close(sink.release)
	select {
	case <-gate:
	case <-time.After(5 * time.Second):
		t.Fatal("gate stayed closed after the batch landed")
	}
	if f := <-flushed; f {
		t.Fatal("FlushKey found writes left after the batch landed")
	}
	if lag, _ := c.RowStaleness(key); lag != 0 {
		t.Fatalf("RowStaleness lag = %d after landing, want 0", lag)
	}
	if err := c.CheckInvariant(1, []uint64{key}); err != nil {
		t.Fatal(err)
	}
}

// TestInFlightKeyKeepsStepOrder checks that a key whose write set is in
// flight is not applied again — by another flusher or by a drain — until
// that set lands, so per-key updates reach the sink in step order.
func TestInFlightKeyKeepsStepOrder(t *testing.T) {
	const key = 3
	sink := newHeldSink()
	c, err := NewController(Options{
		MaxStep: 3, Lookahead: 1, FlushThreads: 4, Trainers: 1,
		Sink:   sink,
		Source: &sliceSource{batches: [][]uint64{{key}, {9}, {8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	var release sync.Once
	defer release.Do(func() { close(sink.release) }) // before Stop joins the flushers

	for step := int64(0); step < 2; step++ {
		if b, ok := c.NextBatch(); !ok || b.Step != step {
			t.Fatalf("batch = %+v, %v, want step %d", b, ok, step)
		}
		c.WaitForStep(step)
		c.CommitStep(step, []KeyDelta{{Key: key, Delta: []float32{1}}})
		if step == 0 {
			<-sink.entered // step 0's set is now held mid-apply
		}
	}
	// Step 1's set is committed while step 0's is in flight; no other
	// flusher may apply it first.
	time.Sleep(20 * time.Millisecond)
	select {
	case keys := <-sink.entered:
		t.Fatalf("a second batch %v reached the sink while key %d was in flight", keys, key)
	default:
	}
	drained := make(chan struct{})
	go func() {
		c.DrainAll()
		close(drained)
	}()
	release.Do(func() { close(sink.release) })
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("DrainAll did not finish")
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	got := sink.steps[key]
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("key %d applied steps %v, want [0 1]", key, got)
	}
}
