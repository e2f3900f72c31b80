package runtime

import (
	"context"
	"errors"
	stdruntime "runtime"
	"testing"
	"time"

	"frugal/internal/data"
)

// waitGoroutines waits for the goroutine count to return to the pre-run
// level, tolerating the runtime's background workers a short settling
// time. Fails the test if goroutines leak.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := stdruntime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:stdruntime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d before run, %d after\n%s", before, n, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertCanceled checks the error contract of RunContext: the returned
// error must satisfy both errors.Is(err, context.Canceled) and
// errors.As(err, **ErrCanceled).
func assertCanceled(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("RunContext with canceled ctx returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var ce *ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("errors.As(err, *ErrCanceled) = false for %v", err)
	}
	if ce.Cause != context.Canceled {
		t.Fatalf("ErrCanceled.Cause = %v", ce.Cause)
	}
}

// TestRunContextAlreadyCanceled is the acceptance check: a 10k-step job
// handed an already-canceled context must return well under a second,
// before any training goroutine starts, with no goroutine left behind.
func TestRunContextAlreadyCanceled(t *testing.T) {
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(3, 500, 0.9), 64, 10_000)
	job, err := NewMicro(Config{
		Engine: EngineFrugal, NumGPUs: 2, Rows: 500, Dim: 4,
		CacheRatio: 0.2, Seed: 3, FlushThreads: 4,
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := stdruntime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := job.RunContext(ctx)
	if took := time.Since(start); took > time.Second {
		t.Fatalf("already-canceled RunContext took %v", took)
	}
	assertCanceled(t, err)
	if res.Steps != 0 || len(res.Losses) != 0 {
		t.Fatalf("already-canceled run reported progress: %+v", res)
	}
	waitGoroutines(t, before)
}

// TestRunContextCancelMidRun cancels each engine a few steps into a long
// job (via the OnStep callback, so the cancellation point is
// deterministic) and verifies the partial-result contract: the returned
// prefix of steps is consistent, the error is typed, and no trainer,
// dispatcher, prefetcher or flusher goroutine is left behind — in
// particular the gate and the step barriers must not deadlock.
func TestRunContextCancelMidRun(t *testing.T) {
	const total = 2000
	for _, engine := range []Engine{EngineFrugal, EngineFrugalSync, EngineDirect} {
		engine := engine
		t.Run(string(engine), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			trace := data.NewSyntheticTrace(data.NewScrambledZipf(5, 500, 0.9), 32, total)
			job, err := NewMicro(Config{
				Engine: engine, NumGPUs: 2, Rows: 500, Dim: 4,
				CacheRatio: 0.2, Seed: 5, FlushThreads: 4,
				CheckConsistency: true,
				OnStep: func(s StepStats) {
					if s.Step == 5 {
						cancel()
					}
				},
			}, trace, 0)
			if err != nil {
				t.Fatal(err)
			}
			before := stdruntime.NumGoroutine()
			res, err := job.RunContext(ctx)
			assertCanceled(t, err)
			if res.Steps <= 0 || res.Steps >= total {
				t.Fatalf("partial result should cover (0, %d) steps, got %d", total, res.Steps)
			}
			if int64(len(res.Losses)) != res.Steps {
				t.Fatalf("Losses length %d != Steps %d", len(res.Losses), res.Steps)
			}
			for i, l := range res.Losses {
				if l == 0 {
					t.Fatalf("completed step %d has zero loss — prefix not fully committed", i)
				}
			}
			waitGoroutines(t, before)
		})
	}
}

// TestRunContextDeadline covers the DeadlineExceeded flavour of the same
// contract on the engine with the most background machinery.
func TestRunContextDeadline(t *testing.T) {
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(7, 500, 0.9), 32, 100_000)
	job, err := NewMicro(Config{
		Engine: EngineFrugal, NumGPUs: 2, Rows: 500, Dim: 4,
		CacheRatio: 0.2, Seed: 7, FlushThreads: 4,
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := stdruntime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := job.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	var ce *ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("want *ErrCanceled, got %T", err)
	}
	if res.Steps >= 100_000 {
		t.Fatalf("job ran to completion despite deadline: %d steps", res.Steps)
	}
	waitGoroutines(t, before)
}
