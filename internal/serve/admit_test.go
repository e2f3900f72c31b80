package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"frugal/internal/runtime"
)

func admitHost(t *testing.T, rows int64, dim int) *runtime.Host {
	t.Helper()
	h, err := runtime.NewHost(rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(key uint64, row []float32) { row[0] = float32(key) })
	return h
}

func (a *admission) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

func TestAdmissionFastPathAndShed(t *testing.T) {
	a := newAdmission(4, 5*time.Millisecond, 2)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := a.Acquire(ctx, 1, classLookup); err != nil {
			t.Fatalf("uncontended acquire %d: %v", i, err)
		}
	}
	if got := a.Inflight(); got != 4 {
		t.Fatalf("inflight = %d, want 4", got)
	}
	// Pool full: a bounded wait, then a shed.
	start := time.Now()
	err := a.Acquire(ctx, 1, classLookup)
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("over-capacity acquire = %v, want *ErrShed", err)
	}
	if shed.Class != classLookup || shed.RetryAfter != 5*time.Millisecond {
		t.Fatalf("shed = %+v", shed)
	}
	if waited := time.Since(start); waited < 5*time.Millisecond {
		t.Fatalf("shed after %v, want a full AdmitWait", waited)
	}
	// A shed waiter must not linger in the queue.
	if got := a.queued(); got != 0 {
		t.Fatalf("queued after shed = %d, want 0", got)
	}
	a.Release(1)
	if err := a.Acquire(ctx, 1, classLookup); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
}

func TestAdmissionQueueFullShedsInstantly(t *testing.T) {
	a := newAdmission(1, time.Minute, 1) // one slot, one waiter, huge wait
	ctx := context.Background()
	if err := a.Acquire(ctx, 1, classLookup); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.Acquire(ctx, 1, classLookup) }()
	for a.queued() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// Queue at MaxWaiters: the next arrival is shed without waiting.
	start := time.Now()
	err := a.Acquire(ctx, 1, classTopK)
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("queue-full acquire = %v, want *ErrShed", err)
	}
	if shed.Waited != 0 {
		t.Fatalf("queue-full shed waited %v, want 0", shed.Waited)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("queue-full shed took %v — it queued", since)
	}
	a.Release(1)
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.Release(1)
}

// TestAdmissionFIFONoBarging pins the ordering: a 1-unit lookup arriving
// behind a queued 3-unit top-K must not slip past it when 1 unit frees.
func TestAdmissionFIFONoBarging(t *testing.T) {
	a := newAdmission(3, time.Minute, 8)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := a.Acquire(ctx, 1, classLookup); err != nil {
			t.Fatal(err)
		}
	}
	var topkDone, lookupDone atomic.Bool
	topkErr := make(chan error, 1)
	go func() {
		err := a.Acquire(ctx, 3, classTopK)
		topkDone.Store(true)
		topkErr <- err
	}()
	for a.queued() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	lookupErr := make(chan error, 1)
	go func() {
		err := a.Acquire(ctx, 1, classLookup)
		lookupDone.Store(true)
		lookupErr <- err
	}()
	for a.queued() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	a.Release(1) // 1 unit free: head needs 3 — nobody may pass it
	time.Sleep(2 * time.Millisecond)
	if topkDone.Load() || lookupDone.Load() {
		t.Fatal("a waiter was admitted past the FIFO head")
	}
	a.Release(1)
	a.Release(1) // 3 free: the top-K head goes first
	if err := <-topkErr; err != nil {
		t.Fatalf("top-K waiter: %v", err)
	}
	a.Release(3) // now the lookup
	if err := <-lookupErr; err != nil {
		t.Fatalf("lookup waiter: %v", err)
	}
}

func TestAdmissionContextCanceled(t *testing.T) {
	a := newAdmission(1, time.Minute, 8)
	if err := a.Acquire(context.Background(), 1, classLookup); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() { got <- a.Acquire(ctx, 1, classLookup) }()
	for a.queued() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire = %v, want context.Canceled", err)
	}
	if got := a.queued(); got != 0 {
		t.Fatalf("queued after cancel = %d, want 0", got)
	}
	a.Release(1)
	if got := a.Inflight(); got != 0 {
		t.Fatalf("inflight = %d, want 0", got)
	}
}

// TestEngineShedsUnderHeldCapacity fills the engine's admission pool by
// hand and checks the full overload surface: *ErrShed from the Go API,
// the shed metric, and 429 + Retry-After from the HTTP layer.
func TestEngineShedsUnderHeldCapacity(t *testing.T) {
	h := admitHost(t, 64, 4)
	eng, err := NewStatic(h, Options{
		MaxInflight: 8, TopKWeight: 8, AdmitWait: time.Millisecond, MaxWaiters: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the whole pool, as one in-flight top-K would.
	if err := eng.adm.Acquire(context.Background(), 8, classTopK); err != nil {
		t.Fatal(err)
	}
	if got := eng.Inflight(); got != 8 {
		t.Fatalf("Inflight = %d, want 8", got)
	}

	dst := make([]float32, 4)
	_, err = eng.Query(context.Background(), Request{Key: 3, Dst: dst, Level: Stale()})
	var shed *ErrShed
	if !errors.As(err, &shed) {
		t.Fatalf("lookup under held capacity = %v, want *ErrShed", err)
	}
	_, err = eng.Query(context.Background(), Request{Vector: []float32{1, 0, 0, 0}, K: 3, Level: Stale()})
	if !errors.As(err, &shed) {
		t.Fatalf("topK under held capacity = %v, want *ErrShed", err)
	}

	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/lookup?key=3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed HTTP status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if m := eng.Metrics(); m.Shed < 3 {
		t.Fatalf("shed counter = %d, want ≥ 3", m.Shed)
	}

	// Release the pool: service resumes, nothing was queued behind it.
	eng.adm.Release(8)
	if _, err := eng.Query(context.Background(), Request{Key: 3, Dst: dst, Level: Stale()}); err != nil {
		t.Fatalf("lookup after release: %v", err)
	}
	if got := eng.Inflight(); got != 0 {
		t.Fatalf("Inflight after drain = %d, want 0", got)
	}
}

func TestEngineCanceledContext(t *testing.T) {
	h := admitHost(t, 64, 4)
	eng, err := NewStatic(h, Options{MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float32, 4)
	if _, err := eng.Query(ctx, Request{Key: 3, Dst: dst, Level: Stale()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("lookup on canceled ctx = %v, want context.Canceled", err)
	}
	if _, err := eng.Query(ctx, Request{Vector: []float32{1, 0, 0, 0}, K: 3, Level: Stale()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("topK on canceled ctx = %v, want context.Canceled", err)
	}
	if m := eng.Metrics(); m.Canceled < 2 {
		t.Fatalf("canceled counter = %d, want ≥ 2", m.Canceled)
	}
	if got := eng.Inflight(); got != 0 {
		t.Fatalf("Inflight after canceled requests = %d, want 0 (slot leaked)", got)
	}
}

// TestAdmittedLookupAllocationFree proves admission control does not cost
// the hot path its zero-allocation property: the uncontended acquire is a
// mutex and two integer updates, nothing more.
func TestAdmittedLookupAllocationFree(t *testing.T) {
	h := admitHost(t, 256, 16)
	eng, err := NewStatic(h, Options{MaxInflight: 64})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, 16)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := eng.Query(ctx, Request{Key: 42, Dst: dst, Level: Stale()}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("admitted lookup allocates %.1f/op, want 0", allocs)
	}
}

// TestWriteErrorDeadlineMapsTo503 pins the HTTP contract for requests
// that outlive their deadline: 503 plus Retry-After, distinct from the
// 400 a malformed request gets.
func TestWriteErrorDeadlineMapsTo503(t *testing.T) {
	rec := httptest.NewRecorder()
	writeError(rec, context.DeadlineExceeded)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("deadline status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("deadline response missing Retry-After")
	}
	rec = httptest.NewRecorder()
	writeError(rec, &ErrShed{Class: classLookup, RetryAfter: 1500 * time.Millisecond})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q (1.5s rounds up to whole seconds)", ra, "2")
	}
}

// TestOptionsValidation pins the engine's non-admission option checks:
// a malformed default level, the top-K cap, and the IVF knobs.
func TestOptionsValidation(t *testing.T) {
	h := admitHost(t, 8, 4)
	bad := []Options{
		{Default: Level{Kind: KindBounded, Bound: -1}},
		{MaxTopK: -1},
		{Index: IndexIVF, Centroids: -1},
		{Index: IndexIVF, NProbe: -1},
		{Centroids: 64},               // an IVF knob without IndexIVF
		{Index: IndexFlat, NProbe: 4}, // likewise
		{Index: IndexKind(99)},
	}
	for i, opt := range bad {
		if opt.Validate() == nil {
			t.Errorf("case %d passed Validate: %+v", i, opt)
		}
		if _, err := NewStatic(h, opt); err == nil {
			t.Errorf("case %d accepted: %+v", i, opt)
		}
	}
	if err := (Options{Index: IndexIVF, Centroids: 2, NProbe: 2, MaxInflight: 8}).Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

func TestOptionsAdmissionValidation(t *testing.T) {
	h := admitHost(t, 8, 4)
	bad := []Options{
		{MaxInflight: -1},
		{MaxInflight: 4, TopKWeight: 8}, // weight exceeds capacity
		{MaxInflight: 8, TopKWeight: -2},
		{MaxInflight: 8, AdmitWait: -time.Second},
		{MaxInflight: 8, MaxWaiters: -1},
		{RequestTimeout: -time.Second},
	}
	for i, opt := range bad {
		if _, err := NewStatic(h, opt); err == nil {
			t.Errorf("case %d accepted: %+v", i, opt)
		}
		if opt.Validate() == nil {
			t.Errorf("case %d passed Validate: %+v", i, opt)
		}
	}
	// Defaults fill in when admission is on.
	eng, err := NewStatic(h, Options{MaxInflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	if eng.opt.TopKWeight != 8 || eng.opt.AdmitWait != 5*time.Millisecond || eng.opt.MaxWaiters != 64 {
		t.Fatalf("admission defaults = %+v", eng.opt)
	}
	// Off by default: no admission state at all.
	plain, err := NewStatic(h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.adm != nil || plain.Inflight() != 0 {
		t.Fatal("admission enabled without MaxInflight")
	}
}
