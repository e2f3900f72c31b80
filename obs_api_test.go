package frugal

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestObservabilityFrugalEngine is the public acceptance check: an
// EngineFrugal job built with Observability enabled must report non-zero
// cache, gate and flush activity, and fire OnStep once per step with a
// consistent flush view.
func TestObservabilityFrugalEngine(t *testing.T) {
	const steps = 30
	var onStepCalls atomic.Int64
	var lastStep atomic.Int64
	job, err := New(Config{
		Engine: EngineFrugal, NumGPUs: 2, CheckConsistency: true, Seed: 4,
		Observability: ObsOptions{Enabled: true},
		OnStep: func(s StepStats) {
			onStepCalls.Add(1)
			lastStep.Store(s.Step)
			if s.FlushBacklog < 0 {
				t.Errorf("negative flush backlog at step %d", s.Step)
			}
		},
	}, Microbenchmark{Options: MicroOptions{KeySpace: 2000, Batch: 64, Steps: steps}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps {
		t.Fatalf("steps = %d", res.Steps)
	}
	if got := onStepCalls.Load(); got != steps {
		t.Fatalf("OnStep fired %d times, want %d", got, steps)
	}

	s := job.Snapshot()
	if s.CacheHits == 0 || s.CacheLookups == 0 {
		t.Fatalf("EngineFrugal must see cache traffic: %+v", s)
	}
	if s.CacheLookups != s.CacheHits+s.CacheMisses {
		t.Fatalf("lookups %d != hits %d + misses %d", s.CacheLookups, s.CacheHits, s.CacheMisses)
	}
	if s.GatePasses != steps*2 {
		t.Fatalf("gate passes %d != steps×gpus %d", s.GatePasses, steps*2)
	}
	if s.FlushEnqueued == 0 || s.FlushApplied != s.FlushEnqueued {
		t.Fatalf("flush accounting after drain: enqueued %d applied %d", s.FlushEnqueued, s.FlushApplied)
	}
	if s.StepsCompleted != steps {
		t.Fatalf("steps completed %d", s.StepsCompleted)
	}
	var buf bytes.Buffer
	if err := job.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("trace dump is empty")
	}
}

// TestSnapshotMatchesResult checks that a Snapshot taken after Run reads
// the same counts as Result and the host slab: each event has one counter.
// (a) is TestFaultedRunThroughPublicAPI's faulted run with the cold tier
// on, where host-write faults must count as injected faults; (b) is a job
// whose OnStep lands write sets with FlushKey, which the flush counters
// and the latency histogram must include.
func TestSnapshotMatchesResult(t *testing.T) {
	micro := Microbenchmark{Options: MicroOptions{KeySpace: 600, Batch: 32, Steps: 20}}
	t.Run("faulted", func(t *testing.T) {
		plan, err := ParseFaultPlan("crash:flusher=0@batch=1;hostfail@write=5,count=3")
		if err != nil {
			t.Fatal(err)
		}
		job, err := New(Config{
			CheckConsistency: true, Seed: 17, FlushThreads: 2, FaultPlan: plan,
			Recovery: Recovery{HeartbeatInterval: time.Millisecond, StallTimeout: 50 * time.Millisecond},
			ColdTier: true, Observability: ObsOptions{Enabled: true},
		}, micro)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Recovery.FaultsInjected != 4 {
			t.Fatalf("FaultsInjected = %d, want 1 crash + 3 host-write failures", res.Recovery.FaultsInjected)
		}
		checkSnapshotMatchesResult(t, job, res)
	})
	t.Run("flushkey", func(t *testing.T) {
		var job *TrainingJob
		var landed atomic.Int64
		job, err := New(Config{
			NumGPUs: 2, CheckConsistency: true, Seed: 5, FlushThreads: 2,
			Observability: ObsOptions{Enabled: true},
			OnStep: func(StepStats) {
				for k := uint64(0); k < 600; k += 7 {
					if job.job.Controller().FlushKey(k) {
						landed.Add(1)
					}
				}
			},
		}, micro)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if landed.Load() == 0 {
			t.Fatal("no FlushKey landed a write set")
		}
		checkSnapshotMatchesResult(t, job, res)
	})
}

func checkSnapshotMatchesResult(t *testing.T, job *TrainingJob, res Result) {
	t.Helper()
	s := job.Snapshot()
	cs := res.CacheStats
	for _, c := range []struct {
		name       string
		snap, want int64
	}{
		{"CacheLookups", s.CacheLookups, cs.Hits + cs.Misses},
		{"CacheHits", s.CacheHits, cs.Hits},
		{"CacheMisses", s.CacheMisses, cs.Misses},
		{"CacheStaleHits", s.CacheStaleHits, cs.StaleHits},
		{"CacheInserts", s.CacheInserts, cs.Inserted},
		{"CacheEvictions", s.CacheEvictions, cs.Evicted},
		{"CachePrefetchFills", s.CachePrefetchFills, cs.PrefetchFills},
		{"CachePrefetchHits", s.CachePrefetchHits, cs.PrefetchHits},
		{"CachePrefetchLate", s.CachePrefetchLate, cs.PrefetchLate},
		{"CachePrefetchWasted", s.CachePrefetchWasted, cs.PrefetchWasted},
		{"FlushApplied", s.FlushApplied, res.Flushed},
		{"FlushEnqueued", s.FlushEnqueued, res.Flushed},
		{"DeferredEntries", s.DeferredEntries, res.Deferred},
		{"GateStallTime", int64(s.GateStallTime), int64(res.StallTime)},
		{"StepsCompleted", s.StepsCompleted, res.Steps},
		{"FaultsInjected", s.FaultsInjected, res.Recovery.FaultsInjected},
		{"FlusherRespawns", s.FlusherRespawns, res.Recovery.FlusherRespawns},
		{"RedistributedEntries", s.RedistributedEntries, res.Recovery.Redistributed},
		{"HostWriteRetries", s.HostWriteRetries, res.Recovery.HostWriteRetries},
		{"FlushLatency.Count", s.FlushLatency.Count, s.FlushedEntries},
	} {
		if c.snap != c.want {
			t.Errorf("Snapshot.%s = %d, want %d", c.name, c.snap, c.want)
		}
	}
	if want := map[bool]int64{false: 0, true: 1}[res.Recovery.Degraded]; s.Degradations != want {
		t.Errorf("Snapshot.Degradations = %d, Result.Recovery.Degraded = %v", s.Degradations, res.Recovery.Degraded)
	}
	ts := job.job.Host().TierStats()
	if got := [5]int64{s.TierPromotions, s.TierDemotions, s.TierDeclined, s.TierColdWrites, s.TierDequantReads}; got !=
		[5]int64{ts.Promotions, ts.Demotions, ts.Declined, ts.ColdWrites, ts.DequantReads} {
		t.Errorf("Snapshot tier fields %v, Host.TierStats %+v", got, ts)
	}
}

// TestObservabilityDirectEngine pins the acceptance criterion that the
// no-P²F engine reports zero flush counters.
func TestObservabilityDirectEngine(t *testing.T) {
	const steps = 20
	job, err := New(Config{
		Engine: EngineDirect, NumGPUs: 2, Seed: 4,
		Observability: ObsOptions{Enabled: true},
	}, Microbenchmark{Options: MicroOptions{KeySpace: 2000, Batch: 64, Steps: steps}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	s := job.Snapshot()
	if s.FlushEnqueued != 0 || s.FlushApplied != 0 || s.FlushedEntries != 0 {
		t.Fatalf("EngineDirect must not flush: %+v", s)
	}
	if s.CacheLookups != 0 || s.GatePasses != 0 {
		t.Fatalf("EngineDirect has no cache or gate: %+v", s)
	}
	if s.StepsCompleted != steps {
		t.Fatalf("steps completed %d", s.StepsCompleted)
	}
}

// TestObservabilityDisabled verifies the zero-cost default: no observer,
// zero snapshot, WriteTrace errors.
func TestObservabilityDisabled(t *testing.T) {
	job, err := New(Config{Engine: EngineFrugal, Seed: 4}, Microbenchmark{Options: MicroOptions{KeySpace: 1000, Batch: 32, Steps: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	s := job.Snapshot()
	if s.CacheLookups != 0 || s.StepsCompleted != 0 || s.TraceEvents != 0 {
		t.Fatalf("disabled observability must report zeros: %+v", s)
	}
	if err := job.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTrace must error when observability is disabled")
	}
}

// TestQueueAndDequeueBatchPassthrough covers the config passthrough fix:
// a Queue override and a custom DequeueBatch must reach the controller —
// the job trains green on the TreeHeap baseline and the queue drains.
func TestQueueAndDequeueBatchPassthrough(t *testing.T) {
	q := NewTreeHeapQueue(1024)
	job, err := New(Config{
		Engine: EngineFrugal, NumGPUs: 2, CheckConsistency: true, Seed: 6,
		Queue: q, DequeueBatch: 16,
		Observability: ObsOptions{Enabled: true},
	}, Microbenchmark{Options: MicroOptions{KeySpace: 2000, Batch: 64, Steps: 25}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 25 {
		t.Fatalf("steps = %d", res.Steps)
	}
	// The override queue (not a fresh default one) carried the traffic…
	if q.Len() != 0 {
		t.Fatalf("override queue not drained: %d entries", q.Len())
	}
	// …and was wired into the observability layer, proving it is the
	// queue the controller used.
	if s := job.Snapshot(); s.PQEnqueues == 0 || s.PQDequeues == 0 {
		t.Fatalf("override queue saw no instrumented traffic: %+v", s)
	}
}

// TestRunContextCancellation covers the public cancellation surface: the
// typed error, the errors.Is bridge, and the fast return.
func TestRunContextCancellation(t *testing.T) {
	job, err := New(Config{Engine: EngineFrugal, NumGPUs: 2, Seed: 8}, Microbenchmark{Options: MicroOptions{KeySpace: 2000, Batch: 64, Steps: 10_000}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := job.RunContext(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var ce *ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("want *ErrCanceled, got %T", err)
	}
	if res.Steps != 0 {
		t.Fatalf("canceled-before-start run made progress: %d steps", res.Steps)
	}
}
