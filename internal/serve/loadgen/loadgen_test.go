package loadgen_test

import (
	"testing"
	"time"

	"frugal/internal/runtime"
	"frugal/internal/serve"
	"frugal/internal/serve/loadgen"
)

func TestRunSmoke(t *testing.T) {
	h, err := runtime.NewHost(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(key uint64, row []float32) { row[0] = float32(key) })
	eng, err := serve.NewStatic(h, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.Run(eng, loadgen.Options{
		Workers:  2,
		Duration: 100 * time.Millisecond,
		K:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Lookups == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Errors != 0 || rep.Rejected != 0 {
		t.Fatalf("static serving errored: %+v", rep)
	}
	if rep.QPS <= 0 || rep.Elapsed <= 0 {
		t.Fatalf("bad rate accounting: %+v", rep)
	}
	if rep.Workers != 2 {
		t.Fatalf("workers = %d", rep.Workers)
	}
	if rep.Ops != rep.Lookups+rep.TopKs {
		t.Fatalf("op counts inconsistent: %+v", rep)
	}
}

// TestOpenLoopOverloadSheds drives an open-loop arrival process well past
// what an admission-bounded engine can hold. The overload is derived from
// the admission limits, not from a timed capacity probe, so a slow or
// busy machine cannot absorb it: the engine must shed (not queue
// unboundedly), admitted-request latency must stay bounded, and the
// arrival accounting must balance: every offered query is dropped at the
// client queue or completes with exactly one outcome.
func TestOpenLoopOverloadSheds(t *testing.T) {
	const (
		maxInflight = 8 // capacity units: 8 lookups or one top-K scan
		topKWeight  = 8
		maxWaiters  = 4
		admitWait   = 200 * time.Microsecond
	)
	h, err := runtime.NewHost(8192, 16)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(key uint64, row []float32) { row[0] = float32(key) })
	eng, err := serve.NewStatic(h, serve.Options{
		MaxInflight: maxInflight, TopKWeight: topKWeight,
		AdmitWait: admitWait, MaxWaiters: maxWaiters,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The engine holds at most maxInflight admitted requests plus
	// maxWaiters queued ones, and a queued one waits at most admitWait.
	// Sixteen workers keep more requests at the door than the pool can
	// hold, and twice held arrivals per admitWait keep every worker busy,
	// so the excess must be shed.
	held := maxInflight + maxWaiters
	rep, err := loadgen.Run(eng, loadgen.Options{
		Workers: 16, Zipf: 0.9, TopKFraction: 0.5, K: 8, Seed: 3,
		Duration:       600 * time.Millisecond,
		ArrivalRate:    2 * float64(held) / admitWait.Seconds(),
		MaxOutstanding: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Fatalf("mode = %q, want open", rep.Mode)
	}
	if rep.Errors != 0 || rep.Aborted {
		t.Fatalf("hard errors under overload: %+v", rep)
	}
	if rep.Offered == 0 {
		t.Fatal("open loop offered nothing")
	}
	if rep.Shed == 0 {
		t.Fatalf("no queries shed past admission capacity (offered %d, ops %d): admission control idle",
			rep.Offered, rep.Ops)
	}
	// Conservation: offered = dropped at the client + one outcome each.
	if got := rep.Dropped + rep.Ops + rep.Shed + rep.Rejected + rep.Errors; got != rep.Offered {
		t.Fatalf("arrival accounting leaks: offered %d ≠ dropped %d + ops %d + shed %d + rejected %d + errors %d",
			rep.Offered, rep.Dropped, rep.Ops, rep.Shed, rep.Rejected, rep.Errors)
	}
	// Bounded latency for admitted work: the client queue is capped and
	// the admission wait is bounded, so p99 cannot grow with the overload.
	// The bound is deliberately loose — it catches unbounded queueing, not
	// scheduler noise.
	for _, lat := range []time.Duration{rep.LookupLatency.Quantile(0.99), rep.TopKLatency.Quantile(0.99)} {
		if lat > 2*time.Second {
			t.Fatalf("admitted p99 = %v: latency unbounded under overload (%+v)", lat, rep)
		}
	}
}

// TestAbortOnPersistentHardErrors aims the generator at an engine that
// fails every query (K over the engine's MaxTopK) and checks the run
// aborts fast instead of hot-spinning through the full Duration — and
// says why.
func TestAbortOnPersistentHardErrors(t *testing.T) {
	h, err := runtime.NewHost(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewStatic(h, serve.Options{MaxTopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := loadgen.Run(eng, loadgen.Options{
		Workers: 4, Duration: 30 * time.Second, // must never run this long
		TopKFraction: 1, K: 16, // every query: k over MaxTopK, a hard error
		HardErrorLimit: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("misconfigured run burned %v before aborting", took)
	}
	if !rep.Aborted {
		t.Fatalf("run did not abort: %+v", rep)
	}
	if rep.FirstError == "" {
		t.Fatal("abort without a surfaced first error")
	}
	if rep.Errors < 32 {
		t.Fatalf("errors = %d, want ≥ HardErrorLimit", rep.Errors)
	}
	if rep.Ops != 0 {
		t.Fatalf("ops = %d on an all-failing engine", rep.Ops)
	}
}

// TestOpenLoopAccountingQuiet drives a light open-loop run well under
// capacity: nothing dropped, nothing shed, latency recorded from arrival.
func TestOpenLoopAccountingQuiet(t *testing.T) {
	h, err := runtime.NewHost(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(key uint64, row []float32) { row[0] = float32(key) })
	eng, err := serve.NewStatic(h, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loadgen.Run(eng, loadgen.Options{
		Workers: 4, Duration: 300 * time.Millisecond, ArrivalRate: 500, K: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Fatalf("mode = %q", rep.Mode)
	}
	if rep.Offered == 0 || rep.Ops == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.Dropped != 0 || rep.Shed != 0 || rep.Errors != 0 || rep.Aborted {
		t.Fatalf("losses under light load: %+v", rep)
	}
	if rep.Ops != rep.Offered {
		t.Fatalf("ops %d ≠ offered %d on an idle engine", rep.Ops, rep.Offered)
	}
	bad := []loadgen.Options{
		{ArrivalRate: -1},
		{ArrivalRate: 100, MaxOutstanding: -1},
		{HardErrorLimit: -1},
	}
	for i, opt := range bad {
		opt.Duration = 10 * time.Millisecond
		if _, err := loadgen.Run(eng, opt); err == nil {
			t.Errorf("case %d accepted: %+v", i, opt)
		}
	}
}

func TestRunValidation(t *testing.T) {
	h, err := runtime.NewHost(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewStatic(h, serve.Options{MaxTopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	bad := []loadgen.Options{
		{Workers: -1},
		{Zipf: 1.5},
		{TopKFraction: 2},
		{K: -5},
	}
	for i, opt := range bad {
		opt.Duration = 10 * time.Millisecond
		if _, err := loadgen.Run(eng, opt); err == nil {
			t.Errorf("case %d accepted: %+v", i, opt)
		}
	}
}
