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
	trace := data.NewSyntheticTrace(
		data.NewScrambledZipf(11, drivenRows, 0.9), allocTestBatch, steps)
	return newDrivenJobOn(t, cfg, trace, steps, prepump)
}

// drivenRows is the key space of a driven job.
const drivenRows = 4096

// newDrivenJobOn is newDrivenJob over the given trace.
func newDrivenJobOn(t testing.TB, cfg Config, trace KeyTrace, steps int64, prepump bool) *Job {
	t.Helper()
	cfg.NumGPUs = 1
	cfg.Rows = drivenRows
	cfg.Dim = 32
	cfg.CacheRatio = 0.5
	cfg.Seed = 11
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

// mallocs runs f n times at GOMAXPROCS 1, as testing.AllocsPerRun does,
// and returns the total number of heap allocations.
func mallocs(n int, f func()) uint64 {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	goruntime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// batchTrace replays prepared batches; Next allocates nothing.
type batchTrace struct {
	batches [][]uint64
	next    int
}

func (b *batchTrace) Next() ([]uint64, bool) {
	if b.next == len(b.batches) {
		return nil, false
	}
	b.next++
	return b.batches[b.next-1], true
}

func (b *batchTrace) Steps() int64 { return int64(len(b.batches)) }
func (b *batchTrace) Batch() int   { return allocTestBatch }

// TestStepPathBoundedAllocFrugal extends the zero-alloc invariant to the
// frugal engine, with and without prefetch: once warm-up has given every
// key its g-entry, a step — the P²F lookahead loop generating the step's
// payload, the step path, and the flushers draining what it enqueued —
// allocates nothing. Finite slot tables are recycled and the ∞ table is
// reset in place whenever it drains (DESIGN.md §5d); step payloads are
// recycled once the step's last worker has finished.
//
// The trace first sweeps the key space, so every key has a g-entry, and
// then repeats one 32-step Zipf cycle, so by the second cycle every
// per-key read and write set has reached its largest size. A fresh Zipf
// stream keeps finding keys whose read set outgrows its capacity for the
// first time; that is warm-up, not a per-step cost. The batches are built
// before the job, because the synthetic generator allocates each batch.
func TestStepPathBoundedAllocFrugal(t *testing.T) {
	const (
		sweep = drivenRows / allocTestBatch
		cycle = 32
		warm  = sweep + 2*cycle
		runs  = 4 * cycle
	)
	for _, prefetch := range []bool{false, true} {
		name := "demand"
		if prefetch {
			name = "prefetch"
		}
		t.Run(name, func(t *testing.T) {
			steps := int64(warm + 2*runs)
			zipf := data.NewSyntheticTrace(
				data.NewScrambledZipf(11, drivenRows, 0.9), allocTestBatch, cycle)
			trace := &batchTrace{}
			for i := 0; i < int(steps); i++ {
				var b []uint64
				switch {
				case i < sweep:
					b = make([]uint64, allocTestBatch)
					for k := range b {
						b[k] = uint64(i*allocTestBatch + k)
					}
				case i < sweep+cycle:
					b, _ = zipf.Next()
				default:
					b = trace.batches[i-cycle]
				}
				trace.batches = append(trace.batches, b)
			}
			cfg := Config{Engine: EngineFrugal, Prefetch: prefetch}
			j := newDrivenJobOn(t, cfg, trace, steps, false)
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
			lookahead := int64(j.cfg.Lookahead)
			one := func() {
				b, ok := j.ctrl.NextBatchCtx(context.Background())
				if !ok {
					t.Fatal("controller stopped early")
				}
				// Let the lookahead loop run as far ahead as it can, so every
				// step sees the same reads registered and each read set
				// reaches its largest size on the schedule warm-up repeats.
				for j.ctrl.Stats().PrefetchedSteps < min(b.Step+lookahead+2, steps) {
					goruntime.Gosched()
				}
				j.step(ws, stepMsg{step: b.Step, payload: j.trace.Take(b.Step)})
				// Let the flushers drain so pooled delta buffers return before
				// the next step draws from the pool.
				for j.ctrl.Queue().Len() > 0 {
					goruntime.Gosched()
				}
			}
			mallocs(warm, one) // warm up under the measured schedule
			// Counted by hand: AllocsPerRun rounds down to whole
			// allocations per run, which hides one arena chunk per 256
			// deferred enqueues. The Go runtime itself may allocate once
			// in a while as goroutines park (a sudog or timer-heap
			// refill); a per-step cost shows in every window, so a
			// window that allocates is measured once more.
			n := mallocs(runs, one)
			if n != 0 {
				n = mallocs(runs, one)
			}
			if n != 0 {
				t.Fatalf("%d steady-state frugal steps allocate %d times, want 0", runs, n)
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
