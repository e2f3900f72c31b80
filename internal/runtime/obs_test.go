package runtime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"frugal/internal/data"
	"frugal/internal/obs"
)

// obsMicroJob runs a multi-GPU micro job with observability attached and
// returns the job plus its final result.
func obsMicroJob(t *testing.T, engine Engine, steps int64) (*Job, Result) {
	t.Helper()
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(9, 400, 0.9), 48, steps)
	job, err := NewMicro(Config{
		Engine: engine, NumGPUs: 2, Rows: 400, Dim: 4,
		CacheRatio: 0.2, Seed: 9, FlushThreads: 4,
		CheckConsistency: true,
		Observer:         obs.New(obs.Options{Shards: 4, TraceCapacity: 1 << 14}),
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

// TestSnapshotInvariantsFrugal checks the cross-metric invariants the
// Snapshot documentation promises, on the engine that exercises every
// instrumented subsystem (cache, gate, priority queue, flusher pool).
func TestSnapshotInvariantsFrugal(t *testing.T) {
	const steps = 30
	job, res := obsMicroJob(t, EngineFrugal, steps)
	s := job.Snapshot()

	if s.CacheLookups != s.CacheHits+s.CacheMisses {
		t.Fatalf("lookups %d != hits %d + misses %d", s.CacheLookups, s.CacheHits, s.CacheMisses)
	}
	if s.CacheStaleHits > s.CacheMisses {
		t.Fatalf("stale hits %d > misses %d", s.CacheStaleHits, s.CacheMisses)
	}
	if s.CacheEvictions > s.CacheInserts {
		t.Fatalf("evictions %d > inserts %d", s.CacheEvictions, s.CacheInserts)
	}
	// The obs counters must agree with the independent Result accounting
	// kept by the caches themselves.
	if s.CacheHits != res.CacheStats.Hits || s.CacheMisses != res.CacheStats.Misses {
		t.Fatalf("obs cache counters (%d/%d) disagree with Result (%d/%d)",
			s.CacheHits, s.CacheMisses, res.CacheStats.Hits, res.CacheStats.Misses)
	}

	if s.GatePasses != steps*2 {
		t.Fatalf("gate passes %d != steps×gpus %d", s.GatePasses, steps*2)
	}
	if s.GateBlocks > s.GatePasses {
		t.Fatalf("gate blocks %d > passes %d", s.GateBlocks, s.GatePasses)
	}
	if (s.GateStallTime > 0) != (s.GateBlocks > 0) {
		t.Fatalf("stall time %v inconsistent with %d blocks", s.GateStallTime, s.GateBlocks)
	}

	// After the epilogue drain every staged update has been applied.
	if s.FlushEnqueued == 0 {
		t.Fatal("EngineFrugal run staged no updates")
	}
	if s.FlushApplied != s.FlushEnqueued {
		t.Fatalf("applied %d != enqueued %d after drain", s.FlushApplied, s.FlushEnqueued)
	}
	if s.FlushApplied != res.Flushed {
		t.Fatalf("obs applied %d disagrees with Result.Flushed %d", s.FlushApplied, res.Flushed)
	}
	if s.DeferredEntries+s.UrgentEntries != s.FlushedEntries {
		t.Fatalf("deferred %d + urgent %d != entries %d", s.DeferredEntries, s.UrgentEntries, s.FlushedEntries)
	}
	if s.FlushLatency.Count != s.FlushedEntries {
		t.Fatalf("latency observations %d != flushed entries %d", s.FlushLatency.Count, s.FlushedEntries)
	}
	if s.FlushBacklog != 0 {
		t.Fatalf("backlog %d after drain", s.FlushBacklog)
	}

	if s.PQEnqueues == 0 || s.PQDequeues == 0 {
		t.Fatalf("priority queue saw no traffic: %+v", s)
	}
	if s.PQDequeues > s.PQEnqueues {
		t.Fatalf("pq dequeues %d > enqueues %d", s.PQDequeues, s.PQEnqueues)
	}

	if s.StepsCompleted != steps {
		t.Fatalf("steps completed %d != %d", s.StepsCompleted, steps)
	}
	if s.StepWall.Count != steps*2 {
		t.Fatalf("step wall observations %d != steps×gpus %d", s.StepWall.Count, steps*2)
	}
	if s.TraceEvents == 0 {
		t.Fatal("tracer saw no events")
	}
}

// TestSnapshotWhileRunning polls Snapshot while a 2-GPU, prefetching,
// cold-tier frugal job trains, so the caches', the tiered slab's and the
// controller's counters are read live (make prefetch-stress runs it under
// the race detector). Every poll must satisfy the live invariants, each
// counter must only grow, and the final poll must agree with Result.
func TestSnapshotWhileRunning(t *testing.T) {
	const steps = 400
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(5, 4000, 0.9), 64, steps)
	job, err := NewMicro(Config{
		Engine: EngineFrugal, NumGPUs: 2, Rows: 4000, Dim: 8,
		CacheRatio: 0.05, Seed: 5, FlushThreads: 2,
		Prefetch: true, ColdTier: true, HotFraction: 0.1,
		Observer: obs.New(obs.Options{Shards: 2, TraceCapacity: -1}),
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	type runOut struct {
		res Result
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := job.Run()
		done <- runOut{res, err}
	}()
	var prev obs.Snapshot
	polls := 0
	check := func(s obs.Snapshot) {
		t.Helper()
		if s.CacheLookups != s.CacheHits+s.CacheMisses {
			t.Fatalf("poll %d: lookups %d != hits %d + misses %d", polls, s.CacheLookups, s.CacheHits, s.CacheMisses)
		}
		if s.FlushApplied > s.FlushEnqueued {
			t.Fatalf("poll %d: applied %d > enqueued %d", polls, s.FlushApplied, s.FlushEnqueued)
		}
		for _, c := range []struct {
			name      string
			now, then int64
		}{
			{"cache lookups", s.CacheLookups, prev.CacheLookups},
			{"prefetch fills", s.CachePrefetchFills, prev.CachePrefetchFills},
			{"tier dequant reads", s.TierDequantReads, prev.TierDequantReads},
			{"tier cold writes", s.TierColdWrites, prev.TierColdWrites},
			{"flushed updates", s.FlushApplied, prev.FlushApplied},
			{"flushed entries", s.FlushedEntries, prev.FlushedEntries},
			{"steps", s.StepsCompleted, prev.StepsCompleted},
		} {
			if c.now < c.then {
				t.Fatalf("poll %d: %s went back from %d to %d", polls, c.name, c.then, c.now)
			}
		}
		prev = s
		polls++
	}
	var out runOut
	for running := true; running; {
		select {
		case out = <-done:
			running = false
		case <-time.After(100 * time.Microsecond):
			check(job.Snapshot())
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	s := job.Snapshot()
	check(s)
	if polls < 2 {
		t.Fatalf("only %d polls", polls)
	}
	if s.StepsCompleted != steps || s.CacheHits != out.res.CacheStats.Hits ||
		s.CachePrefetchFills != out.res.CacheStats.PrefetchFills || s.FlushApplied != out.res.Flushed {
		t.Fatalf("final snapshot disagrees with Result: %+v vs %+v", s, out.res)
	}
	if s.CachePrefetchFills == 0 || s.TierDequantReads == 0 || s.TierColdWrites == 0 {
		t.Fatalf("run did not exercise prefetch and the cold tier: %+v", s)
	}
}

// TestSnapshotDirectEngine verifies the engine-shape of the metrics: the
// no-cache, no-flush engine must report zero P²F and cache traffic while
// still counting steps.
func TestSnapshotDirectEngine(t *testing.T) {
	const steps = 20
	job, _ := obsMicroJob(t, EngineDirect, steps)
	s := job.Snapshot()
	if s.CacheLookups != 0 || s.FlushEnqueued != 0 || s.FlushApplied != 0 ||
		s.GatePasses != 0 || s.PQEnqueues != 0 {
		t.Fatalf("direct engine should have no cache/flush/gate traffic: %+v", s)
	}
	if s.StepsCompleted != steps || s.StepWall.Count != steps*2 {
		t.Fatalf("direct engine step accounting wrong: %+v", s)
	}
}

// TestWriteTrace checks the JSONL dump end-to-end on a real run: every
// line parses, carries the schema fields, and uses known event names.
func TestWriteTrace(t *testing.T) {
	job, _ := obsMicroJob(t, EngineFrugal, 10)
	var buf bytes.Buffer
	if err := job.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{
		"gate_pass": true, "gate_block": true,
		"flush_enqueue": true, "flush_dequeue": true, "flush_apply": true,
		"cache_hit": true, "cache_miss": true, "cache_evict": true,
		"collective_start": true, "collective_end": true, "step_done": true,
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var ev struct {
			Ns    int64  `json:"ns"`
			Type  string `json:"type"`
			Src   *int   `json:"src"`
			Step  *int64 `json:"step"`
			Key   *int64 `json:"key"`
			Value *int64 `json:"value"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d: %v (%s)", lines, err, sc.Text())
		}
		if !known[ev.Type] {
			t.Fatalf("line %d: unknown event type %q", lines, ev.Type)
		}
		if ev.Src == nil || ev.Step == nil || ev.Key == nil || ev.Value == nil {
			t.Fatalf("line %d: missing schema field: %s", lines, sc.Text())
		}
	}
	if lines == 0 {
		t.Fatal("trace dump is empty")
	}
}

// TestWriteTraceRequiresObserver pins the error path for jobs built
// without observability.
func TestWriteTraceRequiresObserver(t *testing.T) {
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(1, 100, 0.9), 16, 5)
	job, err := NewMicro(Config{Engine: EngineDirect, Rows: 100, Dim: 4, Seed: 1}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = job.WriteTrace(&buf)
	if err == nil || !strings.Contains(err.Error(), "observability") {
		t.Fatalf("WriteTrace without observer: %v", err)
	}
	// Snapshot stays usable: it reports the zero value.
	if s := job.Snapshot(); s.StepsCompleted != 0 || s.CacheLookups != 0 {
		t.Fatalf("nil-observer snapshot not zero: %+v", s)
	}
}
