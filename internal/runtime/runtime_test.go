package runtime

import (
	"math"
	"testing"

	"frugal/internal/data"
	"frugal/internal/graph"
	"frugal/internal/model"
	"frugal/internal/pq"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Engine: "cuda", Rows: 10, Dim: 4},
		{Rows: 0, Dim: 4},
		{Rows: 10, Dim: 0},
		{Rows: 10, Dim: 4, CacheRatio: 2},
	}
	for i, cfg := range bad {
		if err := cfg.normalize(); err == nil {
			t.Fatalf("config %d should be invalid: %+v", i, cfg)
		}
	}
	good := Config{Rows: 10, Dim: 4}
	if err := good.normalize(); err != nil {
		t.Fatal(err)
	}
	if good.Engine != EngineFrugal || good.NumGPUs != 1 || good.FlushThreads != 8 ||
		good.Lookahead != 10 || good.CacheRatio != 0.05 {
		t.Fatalf("defaults wrong: %+v", good)
	}
}

func TestHostValidationAndRoundtrip(t *testing.T) {
	if _, err := NewHost(0, 4); err == nil {
		t.Fatal("rows=0 must error")
	}
	if _, err := NewHost(1<<40, 1024); err == nil {
		t.Fatal("oversized slab must error")
	}
	h, err := NewHost(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows() != 10 || h.Dim() != 4 {
		t.Fatal("shape accessors wrong")
	}
	h.Init(func(k uint64, row []float32) { row[0] = float32(k) })
	buf := make([]float32, 4)
	h.ReadRow(3, buf)
	if buf[0] != 3 {
		t.Fatalf("row 3 = %v", buf)
	}
	h.ApplyDelta(3, []float32{1, 0, 0, 0}, 0)
	if h.Version(3) != 1 {
		t.Fatalf("version = %d", h.Version(3))
	}
	h.ReadRowLocked(3, buf)
	if buf[0] != 4 {
		t.Fatalf("row 3 after delta = %v", buf)
	}
	h.ApplyUpdates(3, []pq.Update{{Delta: []float32{1, 0, 0, 0}}, {Delta: []float32{1, 0, 0, 0}}})
	if h.Version(3) != 3 || h.Applied() != 3 {
		t.Fatalf("version=%d applied=%d", h.Version(3), h.Applied())
	}
	if got := h.Snapshot(3); got[0] != 6 {
		t.Fatalf("snapshot = %v", got)
	}
	h.ApplyUpdates(3, nil) // no-op
	if h.Version(3) != 3 {
		t.Fatal("empty ApplyUpdates must not bump version")
	}
}

// allEngines lists the runtime's engines (the paper's systems).
var allEngines = []Engine{EngineFrugal, EngineFrugalSync, EngineDirect}

func microJob(t *testing.T, engine Engine, gpus int, seed int64) Result {
	t.Helper()
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(seed, 500, 0.9), 64, 40)
	job, err := NewMicro(Config{
		Engine: engine, NumGPUs: gpus, Rows: 500, Dim: 4,
		CacheRatio: 0.1, LR: 0.3, Seed: seed, CheckConsistency: true,
		FlushThreads: 4,
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMicroAllEnginesTrain(t *testing.T) {
	for _, engine := range allEngines {
		for _, gpus := range []int{1, 4} {
			res := microJob(t, engine, gpus, 7)
			if res.Steps != 40 {
				t.Fatalf("%s/%d: steps = %d", engine, gpus, res.Steps)
			}
			first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
			if last >= first {
				t.Fatalf("%s/%d: loss did not drop (%v → %v)", engine, gpus, first, last)
			}
		}
	}
}

// TestEngineEquivalence is the end-to-end synchronous-consistency check:
// all three engines, at any GPU count, must produce (numerically almost)
// identical final host parameters for the same trace — because they all
// guarantee reads never observe stale parameters, the gradient sequence
// is identical. A versioning or flushing bug shows up as divergence here.
func TestEngineEquivalence(t *testing.T) {
	type run struct {
		engine Engine
		gpus   int
	}
	runs := []run{
		{EngineDirect, 1},
		{EngineDirect, 4},
		{EngineFrugal, 1},
		{EngineFrugal, 4},
		{EngineFrugalSync, 4},
	}
	hosts := make([]*Host, len(runs))
	for i, r := range runs {
		trace := data.NewSyntheticTrace(data.NewScrambledZipf(11, 300, 0.9), 48, 30)
		job, err := NewMicro(Config{
			Engine: r.engine, NumGPUs: r.gpus, Rows: 300, Dim: 4,
			CacheRatio: 0.2, LR: 0.3, Seed: 11, CheckConsistency: true,
			FlushThreads: 3,
		}, trace, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		hosts[i] = job.Host()
	}
	ref := hosts[0]
	for i := 1; i < len(hosts); i++ {
		for k := uint64(0); k < 300; k++ {
			a, b := ref.Snapshot(k), hosts[i].Snapshot(k)
			for d := range a {
				if math.Abs(float64(a[d]-b[d])) > 1e-3 {
					t.Fatalf("%s/%d diverged from direct/1 at key %d dim %d: %v vs %v",
						runs[i].engine, runs[i].gpus, k, d, b[d], a[d])
				}
			}
		}
	}
}

func TestFrugalFlushAccounting(t *testing.T) {
	res := microJob(t, EngineFrugal, 2, 3)
	if res.Flushed == 0 {
		t.Fatal("no updates flushed")
	}
	if res.Flushed < res.Deferred {
		t.Fatalf("deferred (%d) cannot exceed flushed (%d)", res.Deferred, res.Flushed)
	}
	// Every committed update must eventually reach host memory.
	if res.CacheStats.Hits+res.CacheStats.Misses == 0 {
		t.Fatal("cache never consulted")
	}
}

func TestFrugalWithTreeHeapQueue(t *testing.T) {
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(5, 200, 0.9), 32, 20)
	job, err := NewMicro(Config{
		Engine: EngineFrugal, NumGPUs: 2, Rows: 200, Dim: 4,
		LR: 0.3, Seed: 5, CheckConsistency: true,
		Queue: pq.NewTreeHeap(1024),
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatal("TreeHeap-backed job did not train")
	}
}

func TestRECJobTrains(t *testing.T) {
	spec := data.Avazu.Scaled(100_000)
	stream, err := data.NewRECStream(spec, 21, 32, 60)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewREC(Config{
		Engine: EngineFrugal, NumGPUs: 2, CacheRatio: 0.05,
		LR: 0.1, Seed: 21, CheckConsistency: true,
	}, stream, []int{32, 16}, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 60 {
		t.Fatalf("steps = %d", res.Steps)
	}
	early := avg(res.Losses[:10])
	late := avg(res.Losses[len(res.Losses)-10:])
	if late >= early {
		t.Fatalf("REC loss did not drop: early=%v late=%v", early, late)
	}
	if res.SamplesPerSec <= 0 {
		t.Fatal("throughput not reported")
	}
	// The labels carry a learnable signal, so progressive-validation AUC
	// must exceed chance.
	if res.TrainAUC <= 0.52 {
		t.Fatalf("TrainAUC = %v, want > 0.52", res.TrainAUC)
	}
}

func TestRECRowsTooSmall(t *testing.T) {
	spec := data.Avazu.Scaled(100_000)
	stream, _ := data.NewRECStream(spec, 1, 8, 5)
	if _, err := NewREC(Config{Rows: 10, Dim: 8}, stream, nil, 0); err == nil {
		t.Fatal("undersized Rows must error")
	}
}

func TestKGJobTrains(t *testing.T) {
	spec := data.FB15k.Scaled(50)
	stream, err := data.NewKGStream(spec, 31, 24, 8, 50)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewKG(Config{
		Engine: EngineFrugal, NumGPUs: 2, Dim: 16, CacheRatio: 0.05,
		LR: 0.05, Seed: 31, CheckConsistency: true,
	}, stream, model.NewTransE(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	early := avg(res.Losses[:10])
	late := avg(res.Losses[len(res.Losses)-10:])
	if late >= early {
		t.Fatalf("KG loss did not drop: early=%v late=%v", early, late)
	}
}

func TestKGAllModelsRun(t *testing.T) {
	for _, tm := range []model.TripleModel{model.ComplEx{}, model.DistMult{}, model.SimplE{}, model.NewTransE(4)} {
		spec := data.FB15k.Scaled(100)
		stream, _ := data.NewKGStream(spec, 41, 8, 4, 10)
		job, err := NewKG(Config{
			Engine: EngineFrugal, NumGPUs: 2, Dim: 8,
			LR: 0.05, Seed: 41, CheckConsistency: true,
		}, stream, tm, 0)
		if err != nil {
			t.Fatalf("%s: %v", tm.Name(), err)
		}
		if _, err := job.Run(); err != nil {
			t.Fatalf("%s: %v", tm.Name(), err)
		}
	}
}

func TestBarrier(t *testing.T) {
	b := NewBarrier(3)
	done := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			b.Wait()
			done <- i
		}(i)
	}
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		seen[<-done] = true
	}
	if len(seen) != 3 {
		t.Fatal("barrier lost a party")
	}
	// Reusable.
	go func() { b.Wait(); done <- 10 }()
	go func() { b.Wait(); done <- 11 }()
	go func() { b.Wait(); done <- 12 }()
	for i := 0; i < 3; i++ {
		<-done
	}
}

func avg(xs []float32) float32 {
	var s float32
	for _, x := range xs {
		s += x
	}
	return s / float32(len(xs))
}

// TestAdagradEquivalence extends the engine-equivalence guarantee to the
// Adagrad optimizer: the row-wise accumulator rides the flush path, and
// all engines must still converge to identical parameters AND identical
// optimizer state for the same trace.
func TestAdagradEquivalence(t *testing.T) {
	mk := func(engine Engine, gpus int) *Host {
		trace := data.NewSyntheticTrace(data.NewScrambledZipf(13, 200, 0.9), 32, 25)
		job, err := NewMicro(Config{
			Engine: engine, NumGPUs: gpus, Rows: 200, Dim: 4,
			CacheRatio: 0.2, LR: 0.3, Seed: 13, CheckConsistency: true,
			Optimizer: OptAdagrad,
		}, trace, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Run(); err != nil {
			t.Fatal(err)
		}
		return job.Host()
	}
	// Note: unlike SGD, Adagrad is partition-dependent (squared partial
	// gradients are not additive), so equivalence holds per GPU count —
	// exactly as in real data-parallel systems.
	ref := mk(EngineDirect, 4)
	for _, r := range []struct {
		engine Engine
		gpus   int
	}{{EngineFrugal, 4}, {EngineFrugalSync, 4}} {
		h := mk(r.engine, r.gpus)
		for k := uint64(0); k < 200; k++ {
			a, b := ref.Snapshot(k), h.Snapshot(k)
			for d := range a {
				if math.Abs(float64(a[d]-b[d])) > 1e-3 {
					t.Fatalf("%s/%d adagrad diverged at key %d dim %d: %v vs %v",
						r.engine, r.gpus, k, d, b[d], a[d])
				}
			}
			if ga, gb := ref.OptState(k), h.OptState(k); math.Abs(float64(ga-gb)) > 1e-3 {
				t.Fatalf("%s/%d optimizer state diverged at key %d: %v vs %v",
					r.engine, r.gpus, k, gb, ga)
			}
		}
	}
}

func TestAdagradTrainsAndAccumulates(t *testing.T) {
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(17, 300, 0.9), 64, 40)
	job, err := NewMicro(Config{
		Engine: EngineFrugal, NumGPUs: 2, Rows: 300, Dim: 4,
		LR: 0.5, Seed: 17, CheckConsistency: true, Optimizer: OptAdagrad,
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatal("adagrad loss did not drop")
	}
	// Some hot key must have accumulated squared-gradient state.
	any := false
	for k := uint64(0); k < 300; k++ {
		if job.Host().OptState(k) > 0 {
			any = true
			break
		}
	}
	if !any {
		t.Fatal("no optimizer state accumulated")
	}
}

func TestUnknownOptimizerRejected(t *testing.T) {
	cfg := Config{Rows: 10, Dim: 4, Optimizer: "adam"}
	if err := cfg.normalize(); err == nil {
		t.Fatal("unknown optimizer must be rejected")
	}
	cfg = Config{Rows: 10, Dim: 4}
	if err := cfg.normalize(); err != nil || cfg.Optimizer != OptSGD || cfg.AdagradEps <= 0 {
		t.Fatalf("optimizer defaults wrong: %+v (%v)", cfg, err)
	}
}

func TestGNNJobTrains(t *testing.T) {
	g, err := graph.Generate(51, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := graph.NewSampler(g, 52, 3)
	if err != nil {
		t.Fatal(err)
	}
	job, err := NewGNN(Config{
		Engine: EngineFrugal, NumGPUs: 2, Dim: 16,
		LR: 0.2, Seed: 53, CheckConsistency: true,
	}, g, sampler, 64, 80)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	early := avg(res.Losses[:10])
	late := avg(res.Losses[len(res.Losses)-10:])
	if late >= early {
		t.Fatalf("GNN loss did not drop: early=%v late=%v", early, late)
	}
	if res.Flushed == 0 {
		t.Fatal("GNN updates must flow through the flush path")
	}
}

func TestGNNJobValidation(t *testing.T) {
	g, _ := graph.Generate(51, 100, 2)
	s, _ := graph.NewSampler(g, 1, 2)
	if _, err := NewGNN(Config{Rows: 10, Dim: 8}, g, s, 8, 10); err == nil {
		t.Fatal("undersized Rows must error")
	}
	if _, err := NewGNN(Config{}, g, s, 8, 0); err == nil {
		t.Fatal("steps=0 must error")
	}
}

// TestHostReadRows pins the block-read iteration primitive: the copied
// block matches per-row ReadRow output, and partial ranges land at the
// right offsets.
func TestHostReadRows(t *testing.T) {
	h, err := NewHost(17, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(key uint64, row []float32) {
		for d := range row {
			row[d] = float32(key)*100 + float32(d)
		}
	})
	block := make([]float32, 6*5)
	h.ReadRows(7, block)
	one := make([]float32, 5)
	for i := 0; i < 6; i++ {
		h.ReadRow(uint64(7+i), one)
		for d := 0; d < 5; d++ {
			if block[i*5+d] != one[d] {
				t.Fatalf("row %d dim %d: block %v, ReadRow %v", 7+i, d, block[i*5+d], one[d])
			}
		}
	}
}
