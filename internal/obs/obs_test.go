package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestNilObserverIsNoOp drives every instrumentation hook through nil
// receivers — the runtime's default path must never dereference them.
func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	o.GateSink().Wait(0, 0, time.Millisecond)
	o.FlushSink().Enqueued(0, 0, 4)
	o.FlushSink().Dequeued(0, 1, 4)
	o.FlushSink().Applied(0, 1, time.Microsecond)
	o.PQSink().Enqueue(1)
	o.PQSink().Dequeue(1)
	o.PQSink().Adjust(1)
	o.PQSink().StalePop(1)
	o.StepSink().WorkerStep(0, 0, time.Millisecond)
	o.TraceSink().Emit(EvGatePass, 0, 0, 0, 0)
	if s := o.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Fatalf("nil observer snapshot not zero: %+v", s)
	}
	if ev := o.TraceSink().Events(); ev != nil {
		t.Fatalf("nil tracer returned events: %v", ev)
	}
}

// TestCounterSharding verifies concurrent sharded increments sum exactly.
func TestCounterSharding(t *testing.T) {
	c := newCounter(8)
	const writers, per = 16, 10_000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(w, 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Total(); got != writers*per {
		t.Fatalf("Total = %d, want %d", got, writers*per)
	}
	// Negative writer ids (keys cast through int) must not panic.
	c.Add(-3, 1)
	if got := c.Total(); got != writers*per+1 {
		t.Fatalf("Total after negative shard = %d", got)
	}
}

// TestHistogramBuckets checks the shared log-linear layout: every value
// lands in a bucket whose upper bound covers it within 1/16, the buckets
// ascend, and values past the last finite bucket overflow.
func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	vals := []int64{0, 5, 10, 11, 100, 5000, 1 << 40}
	var sum int64
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	s := h.snapshot()
	if s.Count != int64(len(vals)) || s.Sum != time.Duration(sum) {
		t.Fatalf("count/sum = %d/%d", s.Count, s.Sum)
	}
	if got := s.Mean(); got != time.Duration(sum/int64(len(vals))) {
		t.Fatalf("mean = %d", got)
	}
	// Each finite value gets its own bucket here; 1<<40 ns overflows.
	if len(s.Buckets) != len(vals) {
		t.Fatalf("buckets = %+v", s.Buckets)
	}
	for i, b := range s.Buckets[:len(vals)-1] {
		v := time.Duration(vals[i])
		if b.Count != 1 || b.Le < v || b.Le > v+v/16 {
			t.Fatalf("value %d: bucket le=%d count=%d", v, b.Le, b.Count)
		}
	}
	if last := s.Buckets[len(vals)-1]; last.Le != time.Duration(int64(^uint64(0)>>1)) || last.Count != 1 {
		t.Fatalf("overflow bucket = %+v", last)
	}
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		le := bucketLe(i)
		if le <= prev || bucketOf(le) != i || bucketOf(prev+1) != i {
			t.Fatalf("bucket %d = (%d, %d] does not tile the range", i, prev, le)
		}
		prev = le
	}
	if bucketOf(prev+1) != histBuckets || bucketOf(-5) != 0 {
		t.Fatal("out-of-range values must land in the edge buckets")
	}
}

// TestQuantileRelativeError sweeps durations across 1µs–10s and checks
// that Quantile over-reads each by at most 10%, for a single observation
// and for the quantiles of the whole sweep; Observe allocates nothing.
func TestQuantileRelativeError(t *testing.T) {
	const lo, hi = int64(time.Microsecond), int64(10 * time.Second)
	var sweep []int64
	for v := float64(lo); int64(v) <= hi; v *= 1.013 {
		sweep = append(sweep, int64(v))
	}
	sweep = append(sweep, hi)
	relErr := func(got time.Duration, want int64) float64 {
		return (float64(got) - float64(want)) / float64(want)
	}
	var all Histogram
	for _, v := range sweep {
		var one Histogram
		one.Observe(v)
		all.Observe(v)
		for _, q := range []float64{0.5, 1} {
			if e := relErr(one.snapshot().Quantile(q), v); e < 0 || e > 0.10 {
				t.Fatalf("Quantile(%v) of {%d} off by %.3f", q, v, e)
			}
		}
	}
	s := all.snapshot()
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		rank := int(q*float64(len(sweep))+0.999999) - 1
		if e := relErr(s.Quantile(q), sweep[rank]); e < 0 || e > 0.10 {
			t.Fatalf("Quantile(%v) = %v, exact %d: off by %.3f", q, s.Quantile(q), sweep[rank], e)
		}
	}
	if n := testing.AllocsPerRun(100, func() { all.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocates %v per call", n)
	}
}

// TestSnapshotInvariants exercises a live observer the way the runtime
// does and checks the cross-metric invariants Snapshot documents for the
// fields obs owns. The fields other packages own stay zero here: the
// runtime fills them from their owners.
func TestSnapshotInvariants(t *testing.T) {
	o := New(Options{Shards: 4, TraceCapacity: 1024})
	gs, fs := o.GateSink(), o.FlushSink()
	for gpu := 0; gpu < 4; gpu++ {
		for step := int64(0); step < 10; step++ {
			gs.Wait(gpu, step, time.Duration(step%3)*time.Microsecond)
		}
		fs.Enqueued(gpu, int64(gpu), 25)
	}
	fs.Dequeued(0, 7, 25)
	fs.Applied(0, 7, 40*time.Microsecond)
	fs.Applied(-1, 9, 2*time.Millisecond)

	s := o.Snapshot()
	if s.GatePasses != 40 || s.GateBlocks > s.GatePasses || s.GateStall.Count != s.GateBlocks {
		t.Fatalf("gate passes/blocks/stalls = %d/%d/%d", s.GatePasses, s.GateBlocks, s.GateStall.Count)
	}
	if s.FlushEnqueued != 100 {
		t.Fatalf("enqueued = %d, want 100", s.FlushEnqueued)
	}
	if s.FlushLatency.Count != 2 {
		t.Fatalf("latency count = %d", s.FlushLatency.Count)
	}
	if s.CacheLookups != 0 || s.FlushApplied != 0 || s.StepsCompleted != 0 || s.FaultsInjected != 0 {
		t.Fatalf("obs filled a field another package owns: %+v", s)
	}
	if s.TraceEvents == 0 || s.TraceDropped != 0 {
		t.Fatalf("trace events/dropped = %d/%d", s.TraceEvents, s.TraceDropped)
	}
}
