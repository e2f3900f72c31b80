package runtime

import (
	"context"
	goruntime "runtime"
	"testing"

	"frugal/internal/data"
)

// allocTestBatch keeps the driven jobs small enough for AllocsPerRun's
// GOMAXPROCS(1) regime while still exercising repeats, cache pressure and
// pool cycling.
const allocTestBatch = 128

// newDrivenJob builds a 1-GPU micro job whose step path the tests drive by
// hand (bypassing the dispatcher goroutine). For gate-less engines every
// payload is pre-generated, so the measured loop exercises ONLY the step
// path: gate → gather → compute → commit → bookkeeping.
func newDrivenJob(t testing.TB, cfg Config, steps int64, prepump bool) *Job {
	t.Helper()
	cfg.NumGPUs = 1
	cfg.Rows = 4096
	cfg.Dim = 32
	cfg.CacheRatio = 0.5
	cfg.Seed = 11
	trace := data.NewSyntheticTrace(
		data.NewScrambledZipf(11, uint64(cfg.Rows), 0.9), allocTestBatch, steps)
	j, err := NewMicro(cfg, trace, steps)
	if err != nil {
		t.Fatal(err)
	}
	j.losses = make([]float32, steps)
	if prepump {
		for i := int64(0); i < steps; i++ {
			if _, ok := j.trace.Next(); !ok {
				t.Fatal("trace exhausted during pre-pump")
			}
		}
	}
	return j
}

// TestStepPathZeroAlloc pins the tentpole invariant: after warm-up, one
// training step of the synchronous engines performs ZERO heap allocations
// — the keyTable, the row pool and the pinned-slab gather leave nothing to
// allocate per step. Any regression here is a bug, not noise: the assert
// is exact.
func TestStepPathZeroAlloc(t *testing.T) {
	for name, cfg := range map[string]Config{
		"frugal-sync-sgd":     {Engine: EngineFrugalSync},
		"frugal-sync-adagrad": {Engine: EngineFrugalSync, Optimizer: OptAdagrad},
		"direct-sgd":          {Engine: EngineDirect},
		"direct-adagrad":      {Engine: EngineDirect, Optimizer: OptAdagrad},
	} {
		t.Run(name, func(t *testing.T) {
			const warmup, runs = 8, 20
			steps := int64(warmup + 1 + runs) // AllocsPerRun adds 1 untimed call
			j := newDrivenJob(t, cfg, steps, true)
			ws := j.newWorkerState(0)
			var step int64
			one := func() {
				j.step(ws, stepMsg{step: step, payload: j.trace.Take(step)})
				step++
			}
			for i := 0; i < warmup; i++ {
				one()
			}
			if got := testing.AllocsPerRun(runs, one); got != 0 {
				t.Fatalf("steady-state step allocates %v times, want 0", got)
			}
		})
	}
}

// TestStepPathZeroAllocPrefetch extends the zero-alloc invariant to the
// lookahead prefetcher: with prefetch on, the step path AND the concurrent
// fill stage together still perform zero steady-state heap allocations
// (AllocsPerRun counts global mallocs, so the prefetch goroutine's work is
// inside the measurement). The harness plays dispatch's role: it feeds
// each future batch's keys to the prefetcher before stepping, exactly one
// feed per steady-state step.
func TestStepPathZeroAllocPrefetch(t *testing.T) {
	for name, cfg := range map[string]Config{
		"frugal-sync-sgd-prefetch":     {Engine: EngineFrugalSync, Prefetch: true},
		"frugal-sync-adagrad-prefetch": {Engine: EngineFrugalSync, Optimizer: OptAdagrad, Prefetch: true},
	} {
		t.Run(name, func(t *testing.T) {
			// Warm-up must cycle through every ring slot once so the per-slot
			// keys/pinned slices reach steady-state capacity before measuring.
			const ringWarm, runs = 28, 20
			steps := int64(ringWarm + 1 + runs)
			j := newDrivenJob(t, cfg, steps, false)
			if rs := len(j.prefetchers[0].ring); ringWarm < rs+2 {
				t.Fatalf("warmup %d too short for ring size %d", ringWarm, rs)
			}
			keys := make([][]uint64, 0, steps)
			for i := int64(0); i < steps; i++ {
				ks, ok := j.trace.Next()
				if !ok {
					t.Fatal("trace exhausted during pre-pump")
				}
				keys = append(keys, ks)
			}
			j.startPrefetchers()
			defer j.stopPrefetchers()
			ws := j.newWorkerState(0)
			depth := int64(j.cfg.PrefetchDepth)
			var step, fed int64
			one := func() {
				for fed <= step+depth && fed < steps {
					j.feedPrefetch(fed, keys[fed])
					fed++
				}
				j.step(ws, stepMsg{step: step, payload: j.trace.Take(step)})
				step++
			}
			for i := 0; i < ringWarm; i++ {
				one()
			}
			if got := testing.AllocsPerRun(runs, one); got != 0 {
				t.Fatalf("steady-state prefetched step allocates %v times, want 0", got)
			}
		})
	}
}

// TestStepPathBoundedAllocFrugal bounds the frugal engine's residual.
// EngineFrugal cannot be strictly zero-alloc per step: a key the run
// touches for the first time gets a g-entry with fresh read and write
// sets, the ∞ slot claims a new arena chunk every 256 deferred enqueues
// (its table is never reset; the finite slot tables are recycled and add
// nothing, see DESIGN.md §5d), and this harness also generates the sample
// stream live (the P²F lookahead loop owns the trace, so it cannot be
// pre-pumped). The residual measures 14 allocations per 128-key step; the
// bound is a quarter of the batch.
func TestStepPathBoundedAllocFrugal(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		name := "demand"
		if prefetch {
			name = "prefetch"
		}
		t.Run(name, func(t *testing.T) {
			const warmup, runs = 40, 20
			steps := int64(warmup + 1 + runs)
			cfg := Config{Engine: EngineFrugal, Lookahead: int(steps) + 1,
				Prefetch: prefetch}
			j := newDrivenJob(t, cfg, steps, false)
			ws := j.newWorkerState(0)
			j.ctrl.Start()
			defer j.ctrl.Stop()
			if prefetch {
				// The P²F lookahead loop feeds the prefetcher via OnPrefetch;
				// only the fill stage needs starting (RunContext normally
				// does both).
				j.startPrefetchers()
				defer j.stopPrefetchers()
			}
			one := func() {
				b, ok := j.ctrl.NextBatchCtx(context.Background())
				if !ok {
					t.Fatal("controller stopped early")
				}
				j.step(ws, stepMsg{step: b.Step, payload: j.trace.Take(b.Step)})
				// Let the flushers drain so pooled delta buffers return before
				// the next step draws from the pool.
				for j.ctrl.Queue().Len() > 0 {
					goruntime.Gosched()
				}
			}
			for i := 0; i < warmup; i++ {
				one()
			}
			got := testing.AllocsPerRun(runs, one)
			if limit := float64(allocTestBatch / 4); got > limit {
				t.Fatalf("frugal step allocates %v times, want ≤ %v", got, limit)
			}
		})
	}
}

// TestPooledBufferPoisoning is the aliasing safety net for the row pool:
// it NaN-poisons every buffer the pool hands out (simulating a stale
// reader's worst case: the buffer's previous content is garbage) and
// asserts training results are bit-identical to an unpoisoned run. If any
// consumer read a pooled buffer it no longer owns — or assumed pooled
// buffers arrive zeroed — NaNs would propagate into the parameters.
func TestPooledBufferPoisoning(t *testing.T) {
	for _, engine := range []Engine{EngineFrugal, EngineFrugalSync, EngineDirect} {
		t.Run(string(engine), func(t *testing.T) {
			run := func(poison bool) []float32 {
				const steps = 40
				cfg := Config{Engine: engine, Optimizer: OptAdagrad}
				j := newDrivenJob(t, cfg, steps, false)
				j.rowPool.poison = poison
				if _, err := j.Run(); err != nil {
					t.Fatal(err)
				}
				out := make([]float32, 64*j.cfg.Dim)
				for k := uint64(0); k < 64; k++ {
					j.host.ReadRow(k, out[int(k)*j.cfg.Dim:(int(k)+1)*j.cfg.Dim])
				}
				return out
			}
			clean, poisoned := run(false), run(true)
			for i := range clean {
				if clean[i] != poisoned[i] {
					t.Fatalf("param %d differs under pool poisoning: %v vs %v",
						i, clean[i], poisoned[i])
				}
			}
		})
	}
}
