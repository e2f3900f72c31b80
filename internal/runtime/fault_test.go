package runtime

import (
	"math"
	"testing"
	"time"

	"frugal/internal/data"
	"frugal/internal/fault"
	"frugal/internal/obs"
	"frugal/internal/p2f"
)

func mustInjector(t *testing.T, spec string) *fault.Injector {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fault.NewInjector(p)
}

// faultMicroJob runs the standard micro workload with an optional fault
// plan and recovery config, returning the job for slab inspection.
func faultMicroJob(t *testing.T, engine Engine, gpus int, inj *fault.Injector, rec p2f.Recovery) (*Job, Result) {
	t.Helper()
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(23, 300, 0.9), 48, 30)
	job, err := NewMicro(Config{
		Engine: engine, NumGPUs: gpus, Rows: 300, Dim: 4,
		CacheRatio: 0.2, LR: 0.3, Seed: 23, CheckConsistency: true,
		FlushThreads: 3, Faults: inj, Recovery: rec,
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	return job, res
}

// compareSlabs checks the two hosts' final parameters. exact demands
// byte-identity (single-GPU runs apply every row's updates in step order,
// so fault schedules must not change the result at all); otherwise the
// engine-equivalence tolerance applies (multi-GPU same-step partials land
// in nondeterministic relative order even fault-free).
func compareSlabs(t *testing.T, name string, a, b *Host, rows uint64, exact bool) {
	t.Helper()
	for k := uint64(0); k < rows; k++ {
		ra, rb := a.Snapshot(k), b.Snapshot(k)
		for d := range ra {
			if exact {
				if ra[d] != rb[d] {
					t.Fatalf("%s: slab diverged at key %d dim %d: %v vs %v", name, k, d, ra[d], rb[d])
				}
			} else if math.Abs(float64(ra[d]-rb[d])) > 1e-3 {
				t.Fatalf("%s: slab diverged at key %d dim %d: %v vs %v", name, k, d, ra[d], rb[d])
			}
		}
	}
}

// TestFaultedRunMatchesFaultFree is the acceptance check of the fault
// layer: for every engine, a run with injected faults (and recovery
// healing them) must converge to the same host slab as the fault-free run
// of the same seed. Single-GPU runs must match byte-for-byte.
func TestFaultedRunMatchesFaultFree(t *testing.T) {
	plans := map[Engine]string{
		// The full menu for Frugal: a flusher dies, another stalls, a
		// trainer straggles, and a window of host writes fails.
		EngineFrugal: "crash:flusher=0@batch=1;stall:flusher=1@batch=2,dur=5ms;" +
			"delay:gpu=0@step=3,dur=2ms;hostfail@write=10,count=4",
		// The write-through engines have no flusher pool; stragglers and
		// host-write failures are their fault surface.
		EngineFrugalSync: "delay:gpu=0@step=3,dur=2ms;hostfail@write=10,count=4",
		EngineDirect:     "delay:gpu=0@step=3,dur=2ms;hostfail@write=10,count=4",
	}
	for _, engine := range allEngines {
		clean, cleanRes := faultMicroJob(t, engine, 1, nil, p2f.Recovery{})
		if cleanRes.Recovery.FaultsInjected != 0 {
			t.Fatalf("%s: fault-free run reports injected faults: %+v", engine, cleanRes.Recovery)
		}
		faulted, res := faultMicroJob(t, engine, 1, mustInjector(t, plans[engine]), p2f.Recovery{
			HeartbeatInterval: time.Millisecond,
			StallTimeout:      50 * time.Millisecond,
		})
		if res.Steps != 30 {
			t.Fatalf("%s: faulted run completed %d steps, want 30", engine, res.Steps)
		}
		if res.Recovery.FaultsInjected == 0 {
			t.Fatalf("%s: plan injected nothing: %+v", engine, res.Recovery)
		}
		if res.Recovery.HostWriteRetries != 4 {
			t.Fatalf("%s: HostWriteRetries = %d, want 4", engine, res.Recovery.HostWriteRetries)
		}
		if engine == EngineFrugal {
			if res.Recovery.FlusherCrashes != 1 {
				t.Fatalf("FlusherCrashes = %d, want 1: %+v", res.Recovery.FlusherCrashes, res.Recovery)
			}
			if res.Recovery.FlusherRespawns < 1 {
				t.Fatalf("crashed flusher never respawned: %+v", res.Recovery)
			}
			if res.Recovery.Degraded {
				t.Fatalf("healthy recovery must not degrade: %+v", res.Recovery)
			}
		}
		compareSlabs(t, string(engine), clean.Host(), faulted.Host(), 300, true)
	}
}

// TestFaultedMultiGPUWithinTolerance extends the check to a 4-GPU Frugal
// run: same-step partial updates land in nondeterministic relative order
// even without faults, so the comparison uses the engine-equivalence
// tolerance rather than byte-identity.
func TestFaultedMultiGPUWithinTolerance(t *testing.T) {
	clean, _ := faultMicroJob(t, EngineFrugal, 4, nil, p2f.Recovery{})
	faulted, res := faultMicroJob(t, EngineFrugal, 4,
		mustInjector(t, "crash:flusher=1@batch=1;delay:gpu=2@step=5,dur=1ms"),
		p2f.Recovery{HeartbeatInterval: time.Millisecond, StallTimeout: 50 * time.Millisecond})
	if res.Recovery.FlusherCrashes != 1 {
		t.Fatalf("FlusherCrashes = %d, want 1", res.Recovery.FlusherCrashes)
	}
	compareSlabs(t, "frugal/4 faulted", clean.Host(), faulted.Host(), 300, false)
}

// TestWholePoolKilledDegradesNotDeadlocks kills every flusher with
// respawning disabled: the gate watchdog must switch the run to
// write-through within GateTimeout, the run must complete all steps with
// CheckConsistency on, and (single GPU) the slab must still match the
// fault-free run byte-for-byte — degraded commits apply in step order.
func TestWholePoolKilledDegradesNotDeadlocks(t *testing.T) {
	clean, _ := faultMicroJob(t, EngineFrugal, 1, nil, p2f.Recovery{})
	done := make(chan struct{})
	var faulted *Job
	var res Result
	go func() {
		defer close(done)
		faulted, res = faultMicroJob(t, EngineFrugal, 1,
			mustInjector(t, "crash:flusher=0@batch=1;crash:flusher=1@batch=1;crash:flusher=2@batch=1"),
			p2f.Recovery{
				HeartbeatInterval: time.Millisecond,
				MaxRespawns:       -1,
				GateTimeout:       100 * time.Millisecond,
			})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("whole-pool kill deadlocked the gate: watchdog never fired")
	}
	if res.Steps != 30 {
		t.Fatalf("degraded run completed %d steps, want 30", res.Steps)
	}
	if !res.Recovery.Degraded {
		t.Fatalf("expected degradation: %+v", res.Recovery)
	}
	if res.Recovery.DegradedStep < 0 {
		t.Fatalf("DegradedStep not recorded: %+v", res.Recovery)
	}
	if res.Recovery.FlusherCrashes != 3 || res.Recovery.FlusherRespawns != 0 {
		t.Fatalf("unexpected recovery accounting: %+v", res.Recovery)
	}
	compareSlabs(t, "degraded", clean.Host(), faulted.Host(), 300, true)
}

// TestFaultSnapshotAccounting checks the observability wiring: the fault
// counters surface in the job's obs.Snapshot and in the trace event
// stream.
func TestFaultSnapshotAccounting(t *testing.T) {
	ob := obs.New(obs.Options{})
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(3, 200, 0.9), 32, 20)
	job, err := NewMicro(Config{
		Engine: EngineFrugal, NumGPUs: 1, Rows: 200, Dim: 4,
		CacheRatio: 0.2, LR: 0.3, Seed: 3, CheckConsistency: true,
		FlushThreads: 2, Observer: ob,
		Faults: mustInjector(t, "crash:flusher=0@batch=1;delay:gpu=0@step=2,dur=1ms;hostfail@write=5,count=2"),
		Recovery: p2f.Recovery{
			HeartbeatInterval: time.Millisecond,
			StallTimeout:      50 * time.Millisecond,
		},
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	s := job.Snapshot()
	if s.FaultsInjected == 0 {
		t.Fatalf("snapshot missed injected faults: %+v", s)
	}
	if s.FlusherRespawns == 0 {
		t.Fatalf("snapshot missed respawns: %+v", s)
	}
	if s.HostWriteRetries != 2 {
		t.Fatalf("snapshot HostWriteRetries = %d, want 2", s.HostWriteRetries)
	}
	var sawInject, sawRespawn bool
	for _, e := range ob.TraceSink().Events() {
		switch e.Type {
		case obs.EvFaultInject:
			sawInject = true
		case obs.EvFlusherRespawn:
			sawRespawn = true
		}
	}
	if !sawInject || !sawRespawn {
		t.Fatalf("trace missing fault events: inject=%v respawn=%v", sawInject, sawRespawn)
	}
}

// TestHostWriteRetryBackoff unit-tests the host-level retry loop: a
// window of transient failures must be retried through, never dropped.
func TestHostWriteRetryBackoff(t *testing.T) {
	h, err := NewHost(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	inj := mustInjector(t, "hostfail@write=0,count=3")
	h.SetWriteFault(inj.HostWriteFail)
	h.ApplyDelta(1, []float32{1, 1}, 0)
	if h.WriteRetries() != 3 {
		t.Fatalf("WriteRetries = %d, want 3", h.WriteRetries())
	}
	if got := h.Snapshot(1); got[0] != 1 || got[1] != 1 {
		t.Fatalf("delta lost across retries: %v", got)
	}
	h.ApplyDelta(1, []float32{1, 1}, 0) // window passed: no more retries
	if h.WriteRetries() != 3 {
		t.Fatalf("retried outside the window: %d", h.WriteRetries())
	}
}
