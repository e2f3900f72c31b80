package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"frugal/internal/ckpt"
	"frugal/internal/data"
	"frugal/internal/pq"
	"frugal/internal/runtime"
	"frugal/internal/serve"
	"frugal/internal/serve/loadgen"
	"frugal/internal/shard"
	"frugal/internal/tensor"
)

// This file implements the reproducible perf baseline (`frugal-bench
// -perf`, `make bench-baseline`): a fixed suite of wall-clock benchmarks —
// tensor kernels, the per-engine training step loop, and the priority
// queue's enqueue/drain cycle — executed through testing.Benchmark and
// serialised as a stable JSON report (BENCH_baseline.json). CI re-runs the
// suite and gates on allocs/op, which is deterministic across machines;
// ns/op is reported but advisory.

// PerfBench is one benchmark's measurement.
type PerfBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	// Recall is the quality figure of accuracy rows (recall@k against the
	// exhaustive scan); zero for pure latency rows. Unlike ns/op it is
	// deterministic — fixed seed, fixed query set — so CI gates on it.
	Recall float64 `json:"recall,omitempty"`
	// Speedup is the throughput ratio of scaling rows (multi-shard gather
	// against single-shard). It is a wall-clock figure, but as a ratio of
	// two measurements from the same run it cancels machine speed — what
	// it cannot cancel is core count, so ComparePerf gates on it only on
	// machines with enough CPUs to express the fan-out parallelism.
	Speedup float64 `json:"speedup,omitempty"`
	// MissRate is the demand miss rate of the training rows that report
	// cache behaviour (misses per demand lookup, prefetched fills excluded
	// from the numerator). Deterministic for the fixed-seed step loops, but
	// compared as an advisory figure: it moves whenever the cache geometry
	// or replacement policy legitimately changes.
	MissRate float64 `json:"missRate,omitempty"`
}

// PerfReport is the serialised baseline. GitSHA is supplied by the caller
// (the CLI shells out to git; tests leave it empty).
type PerfReport struct {
	GitSHA     string      `json:"gitSHA"`
	GoVersion  string      `json:"goVersion"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"numCPU"`
	Quick      bool        `json:"quick"`
	Benchmarks []PerfBench `json:"benchmarks"`
}

// perfEntry is one suite row. benchtime, when non-empty, overrides the
// default measurement window for this row. The step-loop rows pin a fixed
// iteration count ("200x") rather than a time window: their allocs/op
// includes a cold-start transient (g-entry directory creation, cache
// fills) that amortises over however many steps the window happens to
// fit, so a time-based count would make allocs/op depend on machine
// speed — exactly what the CI gate must not do.
type perfEntry struct {
	name      string
	benchtime string
	fn        func(b *testing.B)
	// miss, when non-nil, is read after the benchmark runs and published as
	// the row's MissRate (testing.B carries no side channel for it).
	miss *float64
}

// perfSuite returns the benchmark suite in report order.
func perfSuite() []perfEntry {
	const stepIters = "200x"
	return []perfEntry{
		{"kernel/axpy-512", "", benchKernel(512, func(x, y []float32) { tensor.Axpy(0.5, x, y) }), nil},
		{"kernel/dot-512", "", benchKernel(512, func(x, y []float32) { sinkPerf = tensor.Dot(x, y) }), nil},
		{"kernel/scale-512", "", benchKernel(512, func(x, _ []float32) { tensor.Scale(1.0001, x) }), nil},
		{"kernel/mulvec-256x512", "", benchMulVec(false), nil},
		{"kernel/mulvect-256x512", "", benchMulVec(true), nil},
		{"kernel/addouter-256x512", "", benchAddOuter(), nil},
		{"pq/enqueue-drain-64", "", benchPQCycle, nil},
		{"serve/lookup-zipf", "", benchServeLookup, nil},
		{"serve/topk-16", "", benchServeTopK, nil},
		{"serve/topk-ivf-16", "", benchServeTopKIVF, nil},
		{"serve/topk-quantized-rescore", "", benchServeTopKQuantized, nil},
		{"store/gather-1shard", "", benchShardGather(1), nil},
		{"store/gather-3shard", "", benchShardGather(3), nil},
		{"steploop/frugal-sgd-g1", stepIters, benchStepLoop(runtime.Config{Engine: runtime.EngineFrugal}, nil), nil},
		{"steploop/frugal-adagrad-g1", stepIters, benchStepLoop(runtime.Config{Engine: runtime.EngineFrugal, Optimizer: runtime.OptAdagrad}, nil), nil},
		{"steploop/frugal-sync-g1", stepIters, benchStepLoop(runtime.Config{Engine: runtime.EngineFrugalSync}, nil), nil},
		// The cold-tier row: the frugal step loop on a tiered slab (5% hot
		// head, int8 cold tail). Read against steploop/frugal-sgd-g1 — the
		// identical workload all-f32 — it prices the cold path's
		// dequantize-apply-requantize cycle and the flush-boundary tier
		// maintenance.
		{"train/step-cold-tier", stepIters, benchStepLoop(runtime.Config{Engine: runtime.EngineFrugal, ColdTier: true, HotFraction: 0.05}, nil), nil},
		{"steploop/direct-g1", stepIters, benchStepLoop(runtime.Config{Engine: runtime.EngineDirect}, nil), nil},
		// The prefetch pair: identical workload, prefetch off vs on. Read
		// together they show what the lookahead fill stage buys — the demand
		// miss rate collapses while ns/op improves (misses move off the
		// gather's critical path onto the overlap stage).
		{"train/miss-rate-zipf", stepIters, benchStepLoop(runtime.Config{Engine: runtime.EngineFrugal}, &missRateSink.off), &missRateSink.off},
		{"train/step-prefetch", stepIters, benchStepLoop(runtime.Config{Engine: runtime.EngineFrugal, Prefetch: true}, &missRateSink.on), &missRateSink.on},
		// The continuous-training pair: what the delta-checkpoint log costs
		// the step loop at steady state (read against steploop/frugal-sgd-g1,
		// the identical workload without the log), and how fast a serve
		// follower replays that log into its own slab.
		{"train/step-delta-log", stepIters, benchStepLoopDeltaLog, nil},
		{"ckpt/follower-apply-16k", "20x", benchFollowerApply, nil},
	}
}

// missRateSink receives the demand miss rates captured by the train rows.
var missRateSink struct{ off, on float64 }

// sinkPerf defeats dead-code elimination of pure kernels.
var sinkPerf float32

func benchKernel(dim int, f func(x, y []float32)) func(b *testing.B) {
	return func(b *testing.B) {
		x := make([]float32, dim)
		y := make([]float32, dim)
		for i := range x {
			x[i] = float32(i%7) * 0.25
			y[i] = float32(i%5) * 0.5
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f(x, y)
		}
	}
}

func benchMulVec(transpose bool) func(b *testing.B) {
	const rows, cols = 256, 512
	return func(b *testing.B) {
		m := tensor.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(i%11) * 0.1
		}
		xn, dn := cols, rows
		if transpose {
			xn, dn = rows, cols
		}
		x := make([]float32, xn)
		dst := make([]float32, dn)
		for i := range x {
			x[i] = float32(i%3) * 0.5
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if transpose {
				m.MulVecT(x, dst)
			} else {
				m.MulVec(x, dst)
			}
		}
	}
}

func benchAddOuter() func(b *testing.B) {
	const rows, cols = 256, 512
	return func(b *testing.B) {
		m := tensor.NewMatrix(rows, cols)
		a := make([]float32, rows)
		x := make([]float32, cols)
		for i := range a {
			a[i] = float32(i%13) * 0.01
		}
		for i := range x {
			x[i] = float32(i%7) * 0.1
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.AddOuter(0.01, a, x)
		}
	}
}

// benchPQCycle measures one enqueue+drain cycle of 64 g-entries through
// the two-level queue (the flusher pool's hot loop). Each cycle is one
// training step: the entries are read at the next step, and once they
// are drained the gate passes that step and raises the lower bound, so
// the step's ring slot is recycled as in a training run.
func benchPQCycle(b *testing.B) {
	const cycle = 64
	q, err := pq.NewTwoLevelPQ(pq.TwoLevelOptions{})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]*pq.GEntry, cycle)
	for i := range entries {
		entries[i] = pq.NewGEntry(uint64(i))
	}
	claim := func(g *pq.GEntry, slotPriority int64) bool {
		if !g.InQueue || g.Priority != slotPriority {
			return false
		}
		g.InQueue = false
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := int64(i) + 1
		for _, g := range entries {
			g.Mu.Lock()
			g.AddRead(step)
			g.AddWriteState(step, nil, 0)
			g.Priority = g.ComputePriority()
			g.InQueue = true
			q.Enqueue(g, g.Priority)
			g.Mu.Unlock()
		}
		drained := 0
		for drained < cycle {
			n := q.ProcessBatch(cycle, func(g *pq.GEntry, p int64) bool {
				ok := claim(g, p)
				if ok {
					// Mirror the production flusher's critical section:
					// TakeWrites hands the storage out, FlushedWrites hands it
					// back for reuse — discarding it would charge the row an
					// allocation per cycle the real flush loop never pays.
					w := g.TakeWrites()
					g.RemoveRead(step)
					g.FlushedWrites(w)
				}
				return ok
			})
			drained += n
		}
		q.RaiseLowerBound(step + 1)
	}
}

// newServeHost builds the 50k×64 slab the serving rows read from.
func newServeHost() *runtime.Host {
	h, err := runtime.NewHost(50_000, 64)
	if err != nil {
		panic(err) // fixed valid geometry
	}
	h.Init(func(key uint64, row []float32) {
		for i := range row {
			row[i] = float32((int(key)+i)%7) * 0.1
		}
	})
	return h
}

// benchServeLookup measures one Zipf-keyed stale lookup on a live-mode
// engine — the stripe-locked read path, which must stay allocation-free.
func benchServeLookup(b *testing.B) {
	eng, err := serve.New(newServeHost(), nil, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	keys := data.NewScrambledZipf(7, 50_000, 0.9)
	dst := make([]float32, eng.Dim())
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(ctx, serve.Request{Key: keys.Next(), Dst: dst}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServeTopK measures one k=16 similarity query over the static
// (checkpoint-mode) engine — the exhaustive batched MulVec scan. It runs
// on the same mixture slab and query set as the IVF row, so the pair is
// a like-for-like comparison: identical data, identical queries, only
// the index differs, and serve/topk-ivf-recall16 reports the accuracy
// cost of the sublinear path against exactly this ground truth.
func benchServeTopK(b *testing.B) {
	_, eng, queries := ivfBench()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(ctx, serve.Request{Vector: queries[i%len(queries)], K: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// The top-K rows run on a clusterable mixture slab: the lookup row's
// ramp pattern has only 7 distinct directions, which no inverted file
// can meaningfully partition. 100k×64 is sized so the exhaustive scan
// costs a few ms — the regime where a serving tier actually needs an
// index. Centroids deliberately over-partition the mixture (640
// centroids on 320 true clusters): boundary rows that straddle two
// clusters land in their own fine partitions, which the probe ranking
// then surfaces — that is what holds measured recall@16 at 0.987 with
// only nprobe=2, scanning 320 + 2·100k/320 ≈ 0.9k row-dots, a ~105×
// cut from the 100k exhaustive scan. (The 320/2 point came out of a
// (C, P) sweep: recall across C is not monotone — each centroid count
// converges to a different k-means solution — so the config is the
// measured best per dot, not the analytic cost optimum. The slab, the
// build and the queries are all fixed-seed, so the recall row is a
// deterministic constant, not a flaky measurement.)
const (
	ivfBenchRows      = 100_000
	ivfBenchDim       = 64
	ivfBenchClusters  = 320
	ivfBenchCentroids = 320
	ivfBenchNProbe    = 2
	ivfBenchQueries   = 64
)

// ivfBenchState memoizes the mixture slab and all three engines: the
// k-means build and the tiered conversion are one-time costs shared by
// the latency and recall rows.
var ivfBenchState struct {
	once    sync.Once
	ivf     *serve.Engine
	flat    *serve.Engine
	tiered  *serve.Engine
	queries [][]float32
}

func ivfBench() (ivf, flat *serve.Engine, queries [][]float32) {
	s := &ivfBenchState
	s.once.Do(func() {
		h, err := runtime.NewHost(ivfBenchRows, ivfBenchDim)
		if err != nil {
			panic(err) // fixed valid geometry
		}
		rng := rand.New(rand.NewSource(3))
		centers := make([][]float32, ivfBenchClusters)
		for c := range centers {
			centers[c] = make([]float32, ivfBenchDim)
			for d := range centers[c] {
				centers[c][d] = rng.Float32()*2 - 1
			}
		}
		h.Init(func(key uint64, row []float32) {
			center := centers[key%ivfBenchClusters]
			for d := range row {
				row[d] = center[d] + (rng.Float32()*2-1)*0.1
			}
		})
		if s.flat, err = serve.NewStatic(h, serve.Options{}); err != nil {
			panic(err)
		}
		s.ivf, err = serve.NewStatic(h, serve.Options{
			Index: serve.IndexIVF, Centroids: ivfBenchCentroids, NProbe: ivfBenchNProbe,
		})
		if err != nil {
			panic(err)
		}
		// The quantized rows serve the same slab through the cold tier:
		// checkpoint the flat host and reload it tiered (5% hot head) —
		// the exact conversion frugal-serve -cold-tier performs. Scans
		// score cold rows on their int8 codes; the winners are rescored
		// from full-precision dequantized reads.
		var buf bytes.Buffer
		if err := h.Save(&buf); err != nil {
			panic(err)
		}
		ht, err := runtime.LoadHostTiered(&buf, 0.05)
		if err != nil {
			panic(err)
		}
		if s.tiered, err = serve.NewStatic(ht, serve.Options{}); err != nil {
			panic(err)
		}
		qrng := rand.New(rand.NewSource(9))
		s.queries = make([][]float32, ivfBenchQueries)
		for q := range s.queries {
			center := centers[qrng.Intn(ivfBenchClusters)]
			s.queries[q] = make([]float32, ivfBenchDim)
			for d := range s.queries[q] {
				s.queries[q][d] = center[d] + (qrng.Float32()*2-1)*0.2
			}
		}
	})
	return s.ivf, s.flat, s.queries
}

// benchServeTopKQuantized measures one k=16 exhaustive query over the
// tiered (95% int8) mixture slab — the quantized scan-then-rescore path.
// Its companion row serve/topk-quantized-recall16 reports the accuracy
// of exactly this configuration against the all-f32 scan.
func benchServeTopKQuantized(b *testing.B) {
	ivfBench()
	eng := ivfBenchState.tiered
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(ctx, serve.Request{Vector: ivfBenchState.queries[i%len(ivfBenchState.queries)], K: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServeTopKIVF measures one k=16 query through the IVF index on the
// mixture slab — the sublinear path: nprobe partitions scanned instead of
// the whole table. Its companion row serve/topk-ivf-recall16 reports the
// accuracy of exactly this configuration.
func benchServeTopKIVF(b *testing.B) {
	eng, _, queries := ivfBench()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(ctx, serve.Request{Vector: queries[i%len(queries)], K: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// ivfRecallRow computes recall@16 of the IVF configuration the latency
// row measures, against the exhaustive scan on the same slab and query
// set. Fully deterministic, so ComparePerf gates on it: speed bought by
// skipping partitions only counts while the answers stay right.
func ivfRecallRow() PerfBench {
	ivf, flat, queries := ivfBench()
	return PerfBench{
		Name:   "serve/topk-ivf-recall16",
		Recall: recallAt16(ivf, flat, queries),
	}
}

// quantRecallRow computes recall@16 of the quantized scan-then-rescore
// path against the all-f32 exhaustive scan on the same slab and query
// set. Like the IVF recall row it is fully deterministic, so ComparePerf
// gates on it: the memory bought by quantizing the cold tail only counts
// while the answers stay right.
func quantRecallRow() PerfBench {
	_, flat, queries := ivfBench()
	return PerfBench{
		Name:   "serve/topk-quantized-recall16",
		Recall: recallAt16(ivfBenchState.tiered, flat, queries),
	}
}

// recallAt16 scores `got`'s k=16 answers against `truth`'s over the
// fixed query set.
func recallAt16(got, truth *serve.Engine, queries [][]float32) float64 {
	ctx := context.Background()
	var recall float64
	for _, q := range queries {
		exact, err := truth.Query(ctx, serve.Request{Vector: q, K: 16})
		if err != nil {
			panic(err)
		}
		approx, err := got.Query(ctx, serve.Request{Vector: q, K: 16})
		if err != nil {
			panic(err)
		}
		want := make(map[uint64]bool, len(exact.Results))
		for _, c := range exact.Results {
			want[c.Key] = true
		}
		hit := 0
		for _, c := range approx.Results {
			if want[c.Key] {
				hit++
			}
		}
		recall += float64(hit) / float64(len(exact.Results))
	}
	return recall / float64(len(queries))
}

// The shard gather rows measure one 4096-row batched gather through the
// full wire stack — sharded-store fan-out, framing, codec, loopback TCP,
// node-side slab reads — at 1 and 3 shards. The pair quantifies what the
// sharded deployment costs (protocol overhead vs the in-process slab)
// and what it buys (per-shard batches decode and read in parallel, so
// with cores to run them the 3-shard gather approaches a 3× cut in
// wall-clock per batch). RunPerf derives store/gather-speedup-3shard
// from the two rows.
const (
	shardBenchRows  = 30_000
	shardBenchDim   = 64
	shardBenchBatch = 4096
)

// benchShardGather builds an `of`-shard loopback cluster of
// uncoordinated nodes and measures one full batched gather per op.
func benchShardGather(of int) func(b *testing.B) {
	return func(b *testing.B) {
		addrs := make([]string, of)
		for i := 0; i < of; i++ {
			node, err := shard.NewNode(shard.NodeOptions{
				Rows: shardBenchRows, Dim: shardBenchDim, Shard: i, Of: of,
				Uncoordinated: true,
				Init: func(key uint64, row []float32) {
					for j := range row {
						row[j] = float32(key) + float32(j)
					}
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { node.Close() })
			srv, err := shard.NewServer("127.0.0.1:0", node)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			addrs[i] = srv.Addr()
		}
		st, err := shard.DialSharded(addrs)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })

		keys := make([]uint64, shardBenchBatch)
		for i := range keys {
			keys[i] = uint64(i*7) % shardBenchRows
		}
		dst := make([]float32, shardBenchBatch*shardBenchDim)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Gather(keys, dst, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// shardSpeedupRow derives the 3-shard gather scaling ratio from the two
// measured rows.
func shardSpeedupRow(benchmarks []PerfBench) (PerfBench, bool) {
	var single, multi float64
	for _, pb := range benchmarks {
		switch pb.Name {
		case "store/gather-1shard":
			single = pb.NsPerOp
		case "store/gather-3shard":
			multi = pb.NsPerOp
		}
	}
	if single <= 0 || multi <= 0 {
		return PerfBench{}, false
	}
	return PerfBench{Name: "store/gather-speedup-3shard", Speedup: single / multi}, true
}

// prefetchSpeedupRow derives the step-time ratio of the prefetch pair:
// prefetch-off ns/op over prefetch-on ns/op. Like the shard scaling row it
// is a same-run ratio, and like that row it needs cores: on one CPU the
// fill stage and the step path share the core, so the overlap that buys
// the step time back cannot express and the ratio sits at ~1. ComparePerf
// therefore gates it only on multi-CPU machines, with a floor that rejects
// regressions (prefetch making steps slower) rather than demanding a fixed
// win.
func prefetchSpeedupRow(benchmarks []PerfBench) (PerfBench, bool) {
	var off, on float64
	for _, pb := range benchmarks {
		switch pb.Name {
		case "train/miss-rate-zipf":
			off = pb.NsPerOp
		case "train/step-prefetch":
			on = pb.NsPerOp
		}
	}
	if off <= 0 || on <= 0 {
		return PerfBench{}, false
	}
	return PerfBench{Name: "train/prefetch-speedup", Speedup: off / on}, true
}

// benchStepLoop measures one global training step of the microbenchmark
// workload — the same shape as internal/runtime's BenchmarkStepLoop, so
// `go test -bench StepLoop ./internal/runtime` reproduces these rows. The
// train rows pass their missRateSink slot so the run's demand miss rate
// reaches the report; latency-only rows pass nil.
func benchStepLoop(cfg runtime.Config, miss *float64) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := cfg
		cfg.NumGPUs = 1
		cfg.Rows = 50_000
		cfg.Dim = 64
		cfg.CacheRatio = 0.1
		cfg.Seed = 7
		trace := data.NewSyntheticTrace(
			data.NewScrambledZipf(7, uint64(cfg.Rows), 0.9), 512, int64(b.N))
		job, err := runtime.NewMicro(cfg, trace, int64(b.N))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		res, err := job.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if res.Steps != int64(b.N) {
			b.Fatalf("ran %d steps, want %d", res.Steps, b.N)
		}
		if miss != nil {
			*miss = res.CacheStats.MissRate()
		}
	}
}

// benchStepLoopDeltaLog measures the frugal step loop with the
// delta-checkpoint log attached — the steady-state cost of continuous
// incremental checkpointing, read against steploop/frugal-sgd-g1 (the
// identical workload without the log). Sweeps are record-triggered, not
// timer-triggered, so the per-op work is workload-determined rather than
// wall-clock-determined and the allocs/op gate stays meaningful.
func benchStepLoopDeltaLog(b *testing.B) {
	cfg := runtime.Config{Engine: runtime.EngineFrugal}
	cfg.NumGPUs = 1
	cfg.Rows = 50_000
	cfg.Dim = 64
	cfg.CacheRatio = 0.1
	cfg.Seed = 7
	trace := data.NewSyntheticTrace(
		data.NewScrambledZipf(7, uint64(cfg.Rows), 0.9), 512, int64(b.N))
	job, err := runtime.NewMicro(cfg, trace, int64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	w, err := ckpt.NewWriter(job.Host(), job.Controller(), ckpt.Options{
		Dir:           b.TempDir() + "/log",
		SweepInterval: time.Hour,
		SweepRecords:  4096,
		CompactEvery:  16,
	})
	if err != nil {
		b.Fatal(err)
	}
	job.Controller().AddFlushHook(w.OnFlush)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := job.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	// Shutdown (the final sweep) is outside the measurement: the row is
	// steady-state overhead, not wind-down cost.
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if res.Steps != int64(b.N) {
		b.Fatalf("ran %d steps, want %d", res.Steps, b.N)
	}
}

// benchProber stands in for the P²F controller when a benchmark drives
// the delta-log writer directly: a fixed watermark, no residual lag.
type benchProber struct{ wm int64 }

func (p *benchProber) Watermark() int64                   { return p.wm }
func (p *benchProber) RowStaleness(uint64) (int64, int64) { return 0, p.wm }

// The follower-apply fixture: a delta log of 64 sealed segments × 256
// row images over an 8192×64 table, built once and replayed per op.
const (
	followerBenchRows   = 8192
	followerBenchDim    = 64
	followerBenchSegs   = 64
	followerBenchPerSeg = 256
)

var followerBenchState struct {
	once sync.Once
	dir  string
	err  error
}

func followerBenchLog() (string, error) {
	s := &followerBenchState
	s.once.Do(func() {
		s.dir, s.err = os.MkdirTemp("", "frugal-follower-bench-")
		if s.err != nil {
			return
		}
		h, err := runtime.NewHost(followerBenchRows, followerBenchDim)
		if err != nil {
			s.err = err
			return
		}
		pr := &benchProber{}
		w, err := ckpt.NewWriter(h, pr, ckpt.Options{
			Dir: s.dir + "/log", SweepInterval: time.Hour,
		})
		if err != nil {
			s.err = err
			return
		}
		row := make([]float32, followerBenchDim)
		for seg := 0; seg < followerBenchSegs; seg++ {
			pr.wm = int64(seg + 1)
			for i := 0; i < followerBenchPerSeg; i++ {
				key := uint64((seg*followerBenchPerSeg + i*37) % followerBenchRows)
				for d := range row {
					row[d] = float32(key) + float32(seg)*0.01
				}
				h.SetRow(key, row, uint64(seg+1), 0)
				w.OnFlush(key)
			}
			if err := w.Sync(); err != nil {
				s.err = err
				return
			}
		}
		s.err = w.Close()
	})
	return s.dir + "/log", s.err
}

// benchFollowerApply measures one full follower bootstrap — base load
// plus replay of all 64 segments (16k row images) into a fresh slab —
// the recovery-side throughput of the delta log.
func benchFollowerApply(b *testing.B) {
	dir, err := followerBenchLog()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl, err := serve.NewFollower(dir, serve.FollowerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if st := fl.Stats(); st.AppliedSeq != followerBenchSegs ||
			st.Replication.RecordsApplied != followerBenchSegs*followerBenchPerSeg {
			b.Fatalf("follower applied seq %d (%d records), want %d (%d)",
				st.AppliedSeq, st.Replication.RecordsApplied,
				followerBenchSegs, followerBenchSegs*followerBenchPerSeg)
		}
	}
}

// perfInit registers the testing flags exactly once so RunPerf can set
// test.benchtime outside a `go test` binary (testing.Init is idempotent).
var perfInit sync.Once

// RunPerf executes the perf suite and returns the report. quick shortens
// the time-based measurement windows to 50ms (CI smoke — enough for the
// allocs/op gate, which needs no statistical power); full runs measure 1s
// per benchmark. Rows with a fixed iteration count (the step loops) run
// identically in both modes, so their allocs/op is comparable between a
// full-window baseline and a quick CI re-run.
func RunPerf(quick bool) PerfReport {
	perfInit.Do(testing.Init)
	window := "1s"
	if quick {
		window = "50ms"
	}
	rep := PerfReport{
		GoVersion: goruntime.Version(),
		GOARCH:    goruntime.GOARCH,
		NumCPU:    goruntime.NumCPU(),
		Quick:     quick,
	}
	for _, s := range perfSuite() {
		bt := s.benchtime
		if bt == "" {
			bt = window
		}
		if err := flag.Set("test.benchtime", bt); err != nil {
			panic(err) // testing.Init registers the flag; Set cannot fail
		}
		r := testing.Benchmark(s.fn)
		pb := PerfBench{
			Name:        s.name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if s.miss != nil {
			pb.MissRate = *s.miss
		}
		rep.Benchmarks = append(rep.Benchmarks, pb)
	}
	rep.Benchmarks = append(rep.Benchmarks, ivfRecallRow(), quantRecallRow(), loadgenRow(quick), openLoopRow(quick))
	if row, ok := shardSpeedupRow(rep.Benchmarks); ok {
		rep.Benchmarks = append(rep.Benchmarks, row)
	}
	if row, ok := prefetchSpeedupRow(rep.Benchmarks); ok {
		rep.Benchmarks = append(rep.Benchmarks, row)
	}
	return rep
}

// loadgenRow reports the serving load generator's client-observed mean
// lookup latency as a suite row. It is latency-only: ns/op is advisory
// like every wall-clock figure, and allocs/bytes are pinned to zero —
// the lookup path is allocation-free (TestLookupAllocationFree), so the
// alloc gate has nothing to measure through a closed loop.
func loadgenRow(quick bool) PerfBench {
	d := time.Second
	if quick {
		d = 100 * time.Millisecond
	}
	eng, err := serve.NewStatic(newServeHost(), serve.Options{})
	if err != nil {
		panic(err) // fixed valid options
	}
	rep, err := loadgen.Run(eng, loadgen.Options{Workers: 4, Duration: d})
	if err != nil {
		panic(err) // fixed valid options
	}
	return PerfBench{
		Name:    "serve/loadgen-lookup-mean",
		NsPerOp: float64(rep.LookupLatency.Mean().Nanoseconds()),
	}
}

// openLoopRow reports admitted-lookup p99 under open-loop overload: a
// fixed 10k/s arrival rate against an admission-bounded engine, the
// configuration the overload tests exercise. Advisory like every
// wall-clock row — it exists so a perf run shows how shed-under-pressure
// latency moves, not to gate on it.
func openLoopRow(quick bool) PerfBench {
	d := time.Second
	if quick {
		d = 100 * time.Millisecond
	}
	eng, err := serve.NewStatic(newServeHost(), serve.Options{
		MaxInflight: 32, AdmitWait: time.Millisecond,
	})
	if err != nil {
		panic(err) // fixed valid options
	}
	rep, err := loadgen.Run(eng, loadgen.Options{
		Workers: 8, Duration: d, ArrivalRate: 10_000, MaxOutstanding: 256,
	})
	if err != nil {
		panic(err) // fixed valid options
	}
	return PerfBench{
		Name:    "serve/openloop-lookup-p99",
		NsPerOp: float64(rep.LookupLatency.Quantile(0.99).Nanoseconds()),
	}
}

// WritePerf serialises a report as indented JSON (stable field order).
func WritePerf(w io.Writer, rep PerfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadPerf parses a serialised report.
func ReadPerf(r io.Reader) (PerfReport, error) {
	var rep PerfReport
	err := json.NewDecoder(r).Decode(&rep)
	return rep, err
}

// recallFloor is the hard accuracy gate: any row that reports a recall
// figure below it fails the comparison, regardless of the baseline.
const recallFloor = 0.95

// speedupFloor is the multi-shard gather scaling gate: 3 shards must
// deliver at least this ratio over 1 shard. A parallel fan-out can only
// beat the single shard when there are cores to run the per-shard work
// on, so the gate applies from speedupMinCPUs up; below that the ratio
// is recorded and reported as a note (on a 1-CPU machine the 3-shard
// path is strictly extra framing with zero parallelism to pay for it).
const (
	speedupFloor   = 2.5
	speedupMinCPUs = 4
)

// speedupFloors maps each ratio row to its gate. The prefetch ratio's
// floor is a regression backstop (prefetch must not make steps materially
// slower where cores exist to overlap the fills), not a demanded win —
// the win itself is the miss-rate collapse the train rows record.
var speedupFloors = map[string]float64{
	"store/gather-speedup-3shard": speedupFloor,
	"train/prefetch-speedup":      0.9,
}

// ComparePerf diffs current against a baseline. Allocation regressions
// and recall rows under recallFloor are hard failures (both are
// deterministic for this suite); ns/op moves are advisory notes, since
// wall-clock varies across machines. A benchmark present in only one
// report is a note, not a failure.
func ComparePerf(current, baseline PerfReport) (failures, notes []string) {
	// Environment mismatches are warnings, not failures: the deterministic
	// gates (allocs, recall) hold across machines, but every wall-clock and
	// scaling note should be read knowing the runs are not like-for-like.
	if baseline.NumCPU > 0 && current.NumCPU != baseline.NumCPU {
		notes = append(notes, fmt.Sprintf(
			"environment: current run on %d CPUs, baseline on %d — wall-clock and scaling notes are not like-for-like",
			current.NumCPU, baseline.NumCPU))
	}
	if current.Quick != baseline.Quick {
		notes = append(notes, fmt.Sprintf(
			"environment: current quick=%v vs baseline quick=%v — time-windowed rows measured under different windows",
			current.Quick, baseline.Quick))
	}
	base := make(map[string]PerfBench, len(baseline.Benchmarks))
	for _, pb := range baseline.Benchmarks {
		base[pb.Name] = pb
	}
	seen := make(map[string]bool, len(current.Benchmarks))
	for _, cur := range current.Benchmarks {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: new benchmark (no baseline)", cur.Name))
			continue
		}
		// Small absolute slack absorbs one-off warm-up allocations that
		// land inside short CI measurement windows.
		if limit := b.AllocsPerOp + b.AllocsPerOp/4 + 2; cur.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op regressed %d → %d (limit %d)",
				cur.Name, b.AllocsPerOp, cur.AllocsPerOp, limit))
		}
		// The recall gate is absolute: a quality row below the floor fails
		// even if the baseline had already slipped.
		if (cur.Recall > 0 || b.Recall > 0) && cur.Recall < recallFloor {
			failures = append(failures, fmt.Sprintf(
				"%s: recall %.4f under the %.2f floor (baseline %.4f)",
				cur.Name, cur.Recall, recallFloor, b.Recall))
		}
		// The scaling gate applies only where the machine can express the
		// parallelism the ratio measures.
		if cur.Speedup > 0 || b.Speedup > 0 {
			floor, gated := speedupFloors[cur.Name]
			if !gated {
				floor = speedupFloor
			}
			if current.NumCPU >= speedupMinCPUs && cur.Speedup < floor {
				failures = append(failures, fmt.Sprintf(
					"%s: speedup %.2fx under the %.1fx floor on %d CPUs (baseline %.2fx)",
					cur.Name, cur.Speedup, floor, current.NumCPU, b.Speedup))
			} else if current.NumCPU < speedupMinCPUs {
				notes = append(notes, fmt.Sprintf(
					"%s: %.2fx recorded on %d CPUs — gate needs ≥%d (advisory)",
					cur.Name, cur.Speedup, current.NumCPU, speedupMinCPUs))
			}
		}
		if b.NsPerOp > 0 {
			ratio := cur.NsPerOp / b.NsPerOp
			if ratio > 1.5 || ratio < 0.67 {
				notes = append(notes, fmt.Sprintf(
					"%s: ns/op %.0f → %.0f (%.2fx, advisory)", cur.Name, b.NsPerOp, cur.NsPerOp, ratio))
			}
		}
		// Miss-rate moves are advisory: the figure is deterministic, but it
		// legitimately shifts with cache geometry or policy changes.
		if (cur.MissRate > 0 || b.MissRate > 0) && cur.MissRate > b.MissRate*1.25+0.01 {
			notes = append(notes, fmt.Sprintf(
				"%s: demand miss rate %.4f → %.4f (advisory)", cur.Name, b.MissRate, cur.MissRate))
		}
	}
	var missing []string
	for name := range base {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		notes = append(notes, "missing from current run: "+strings.Join(missing, ", "))
	}
	return failures, notes
}
