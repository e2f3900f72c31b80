package frugal

import (
	"bytes"
	"context"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

// TestStreamJobEndToEnd: an unpaced stream runs to its horizon with the
// delta-checkpoint log attached; after the graceful wind-down the log —
// base plus segments — reconstructs the final slab bit-identically.
func TestStreamJobEndToEnd(t *testing.T) {
	dir := t.TempDir() + "/log"
	sj, err := NewStreamJob(Config{NumGPUs: 2, Seed: 4, CheckConsistency: true}, StreamOptions{
		Batch: 32, KeySpace: 500, Dim: 8, Horizon: 40,
		LogDir: dir, SweepInterval: 5 * time.Millisecond, CompactEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sj.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 40 {
		t.Fatalf("steps = %d, want the 40-step horizon", res.Steps)
	}
	if sj.Emitted() != 40*32 {
		t.Fatalf("emitted = %d events, want %d", sj.Emitted(), 40*32)
	}
	ls := sj.LogStats()
	if ls.Segments < 1 || ls.Records < 1 {
		t.Fatalf("delta log never swept: %+v", ls)
	}
	rec, err := ReconstructLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := sj.Host().Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("log reconstruction differs from the final slab")
	}
}

// TestStreamJobLogKeepsVersions: an untiered stream's log reconstructs
// the final slab's bytes and every row's version, with and without
// compaction, and a follower opened on the finished log serves those
// versions.
func TestStreamJobLogKeepsVersions(t *testing.T) {
	for _, every := range []int{4, -1} {
		dir := t.TempDir() + "/log"
		sj, err := NewStreamJob(Config{NumGPUs: 2, Seed: 1}, StreamOptions{
			Batch: 64, KeySpace: 20000, Dim: 8, Horizon: 300,
			LogDir: dir, SweepInterval: 5 * time.Millisecond, CompactEvery: every,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sj.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		host := sj.Host()
		rec, err := ReconstructLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		var want, got bytes.Buffer
		if err := host.Save(&want); err != nil {
			t.Fatal(err)
		}
		if err := rec.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("CompactEvery %d: log reconstruction differs from the final slab", every)
		}
		fs, err := NewServerFromLog(dir, ServeOptions{}, FollowOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float32, host.Dim())
		var versioned, lost, served int
		for k := uint64(0); k < uint64(host.Rows()); k++ {
			v := host.Version(k)
			if v != 0 {
				versioned++
			}
			if rec.Version(k) != v {
				lost++
			}
			resp, err := fs.Query(context.Background(), ServeRequest{Key: k, Dst: dst, Level: ServeStale()})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Meta.Version != v {
				served++
			}
		}
		if versioned == 0 {
			t.Fatalf("CompactEvery %d: no row has a version; the run trained nothing", every)
		}
		if lost != 0 || served != 0 {
			t.Fatalf("CompactEvery %d: of %d versioned rows, %d reconstruct and %d serve at another version",
				every, versioned, lost, served)
		}
	}
}

// TestStreamJobCancelIsGraceful: canceling Run's context ends an
// open-loop stream cleanly — a normal Result, not ErrCanceled — with the
// log's final segment sealed behind the epilogue's drain.
func TestStreamJobCancelIsGraceful(t *testing.T) {
	dir := t.TempDir() + "/log"
	sj, err := NewStreamJob(Config{NumGPUs: 2, Seed: 9, CheckConsistency: true}, StreamOptions{
		Rate: 5000, Batch: 32, KeySpace: 300, Dim: 4, Horizon: 1 << 12,
		LogDir: dir, SweepInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := sj.Run(ctx)
	if err != nil {
		t.Fatalf("graceful cancellation returned %v", err)
	}
	if res.Steps < 1 {
		t.Fatal("no steps before cancellation")
	}
	rec, err := ReconstructLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := sj.Host().Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("log reconstruction differs from the slab after cancellation")
	}
}

func TestNewStreamJobValidation(t *testing.T) {
	if _, err := NewStreamJob(Config{Engine: EngineDirect}, StreamOptions{}); err == nil {
		t.Fatal("streaming on EngineDirect accepted")
	}
	if _, err := NewStreamJob(Config{}, StreamOptions{Distribution: "bogus"}); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

// TestStreamingWorkload: the Workload surface runs the same source
// through New, and refuses the delta log (whose writer lifecycle only
// NewStreamJob manages).
func TestStreamingWorkload(t *testing.T) {
	w := Streaming{Options: StreamOptions{Rate: 1000, Batch: 16, KeySpace: 100, Dim: 4, Horizon: 10}}
	if w.Kind() != "streaming" || w.Name() == "" {
		t.Fatalf("kind %q name %q", w.Kind(), w.Name())
	}
	job, err := New(Config{NumGPUs: 1, CheckConsistency: true}, w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 10 {
		t.Fatalf("steps = %d, want 10", res.Steps)
	}
	if _, err := New(Config{}, Streaming{Options: StreamOptions{LogDir: t.TempDir()}}); err == nil {
		t.Fatal("Workload surface accepted a delta log")
	}
}

// TestRestoreCheckpointErrors: the error paths of RestoreCheckpoint at
// the public API — wrong shape, torn stream, foreign bytes, future
// format — all fail loudly instead of half-loading the slab.
func TestRestoreCheckpointErrors(t *testing.T) {
	mk := func(dim int) *TrainingJob {
		job, err := New(Config{NumGPUs: 1, Seed: 2},
			Microbenchmark{Options: MicroOptions{KeySpace: 200, Dim: dim, Batch: 16, Steps: 5}})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	var buf bytes.Buffer
	if err := mk(16).SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if err := mk(32).RestoreCheckpoint(bytes.NewReader(good)); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape mismatch: %v", err)
	}
	if err := mk(16).RestoreCheckpoint(bytes.NewReader(good[:len(good)-9])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if err := mk(16).RestoreCheckpoint(bytes.NewReader(good[:7])); err == nil {
		t.Fatal("torn header accepted")
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	if err := mk(16).RestoreCheckpoint(bytes.NewReader(badMagic)); err == nil ||
		!strings.Contains(err.Error(), "not a frugal checkpoint") {
		t.Fatalf("bad magic: %v", err)
	}

	badVer := append([]byte(nil), good...)
	badVer[4] = 99
	if err := mk(16).RestoreCheckpoint(bytes.NewReader(badVer)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}

	// And the happy path still round-trips after all that.
	if err := mk(16).RestoreCheckpoint(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
}

// TestStreamJobHeapFlat runs an unpaced stream for 8,000 steps and
// checks that its live heap after a GC barely grows between steps 4,000
// and 8,000: a continuous job must not retain memory per step it runs.
// The P²F queue once kept a slot table for every step (about 10 KB each,
// 40 MB over this span); its ring of recycled slots keeps a fixed set.
func TestStreamJobHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("8,000 training steps")
	}
	const mid, end = 4000, 8000
	heap := map[int64]uint64{}
	liveHeap := func() uint64 {
		var ms goruntime.MemStats
		goruntime.GC()
		goruntime.GC()
		goruntime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cfg := Config{NumGPUs: 2, Seed: 1, OnStep: func(s StepStats) {
		if s.Step == mid || s.Step == end {
			heap[s.Step] = liveHeap()
		}
	}}
	sj, err := NewStreamJob(cfg, StreamOptions{Batch: 64, KeySpace: 2000, Dim: 8, Horizon: end + 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sj.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	a, b := heap[mid], heap[end]
	if a == 0 || b == 0 {
		t.Fatalf("heap not sampled at steps %d and %d: %v", mid, end, heap)
	}
	if grew := int64(b) - int64(a); grew >= 1<<20 {
		t.Fatalf("live heap grew %d B between steps %d and %d (%.0f B/step), want < 1 MB",
			grew, mid, end, float64(grew)/(end-mid))
	}
}

// TestStreamJobAllocSlope is TestStreamJobHeapFlat's companion for what
// a step allocates rather than keeps: on the same unpaced 2,000-key
// stream, the bytes allocated per step from step 4,000 to 8,000. With no
// GC cycle in a short run, every such byte adds to the peak RSS. A step
// allocated about 2.4 KB while the ∞ slot claimed a fresh node per
// deferred enqueue and each step's payload grew its key slices from nil;
// it now allocates about 520 B, almost all of it the 64-key batch (512 B)
// the event source hands the P²F lookahead loop. The bound leaves 128 B
// of margin above that batch.
func TestStreamJobAllocSlope(t *testing.T) {
	if testing.Short() {
		t.Skip("8,000 training steps")
	}
	const mid, end = 4000, 8000
	total := map[int64]uint64{}
	cfg := Config{NumGPUs: 2, Seed: 1, OnStep: func(s StepStats) {
		if s.Step == mid || s.Step == end {
			var ms goruntime.MemStats
			goruntime.ReadMemStats(&ms)
			total[s.Step] = ms.TotalAlloc
		}
	}}
	sj, err := NewStreamJob(cfg, StreamOptions{Batch: 64, KeySpace: 2000, Dim: 8, Horizon: end + 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sj.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	a, b := total[mid], total[end]
	if a == 0 || b == 0 {
		t.Fatalf("allocation not sampled at steps %d and %d: %v", mid, end, total)
	}
	const limit = 64*8 + 128
	if perStep := float64(b-a) / (end - mid); perStep > limit {
		t.Fatalf("a step allocates %.0f B between steps %d and %d, want ≤ %d", perStep, mid, end, limit)
	}
}
