// Package frugal is a from-scratch Go implementation of Frugal, the
// embedding-model training system for commodity GPUs from "Frugal:
// Efficient and Economic Embedding Model Training with Commodity GPUs"
// (ASPLOS 2025).
//
// The library trains real embedding models (DLRM for recommendation;
// TransE/DistMult/ComplEx/SimplE for knowledge graphs) on a simulated
// multi-GPU server: each "GPU" is a trainer goroutine with a private
// embedding cache, host memory is a shared parameter slab, and the
// paper's priority-based proactively flushing (P²F) runtime — lookahead
// sample queue, g-entry metadata, two-level concurrent priority queue,
// background flushing threads, and the synchronous-consistency gate —
// runs for real in between. Three engines are available:
//
//   - EngineFrugal:     the paper's system (P²F, UVA-style host reads).
//   - EngineFrugalSync: the write-through Frugal-Sync baseline.
//   - EngineDirect:     a PyTorch-like no-cache baseline.
//
// The paper's evaluation (every table and figure) is reproducible through
// RunExperiment / the cmd/frugal-bench binary, which drive a calibrated
// virtual-time hardware model (PCIe links without P2P, bounced
// collectives, root-complex contention). See DESIGN.md and
// EXPERIMENTS.md.
//
// Quickstart:
//
//	cfg := frugal.Config{NumGPUs: 4, CacheRatio: 0.05}
//	job, err := frugal.New(cfg, frugal.Recommendation{
//		Dataset: frugal.DatasetAvazu,
//		Options: frugal.RECOptions{Scale: 100_000, Batch: 64, Steps: 200},
//	})
//	if err != nil { ... }
//	res, err := job.Run()
package frugal

import (
	"context"
	"fmt"
	"io"

	"frugal/internal/bench"
	"frugal/internal/data"
	"frugal/internal/fault"
	"frugal/internal/model"
	"frugal/internal/obs"
	"frugal/internal/p2f"
	"frugal/internal/pq"
	"frugal/internal/runtime"
)

// Engine selects the training data path.
type Engine = runtime.Engine

// The available engines.
const (
	// EngineFrugal is the paper's system: sharded per-GPU caches, direct
	// (UVA-style) host-memory reads, and updates flushed to host memory
	// proactively, in priority order, by background threads.
	EngineFrugal = runtime.EngineFrugal
	// EngineFrugalSync is the write-through baseline of §4.1.
	EngineFrugalSync = runtime.EngineFrugalSync
	// EngineDirect is a no-cache baseline that reads and writes host
	// memory directly (the PyTorch baseline's data path).
	EngineDirect = runtime.EngineDirect
)

// Config shapes a training job. The zero value selects EngineFrugal on a
// single GPU with the paper's §4.1 defaults (5% cache, lookahead 10,
// 8 flushing threads).
type Config struct {
	// Engine selects the data path (default EngineFrugal).
	Engine Engine
	// NumGPUs is the number of simulated GPUs (trainer goroutines).
	NumGPUs int
	// CacheRatio sizes each GPU's embedding cache as a fraction of the
	// table (default 0.05).
	CacheRatio float64
	// LR is the embedding learning rate (default 0.05).
	LR float32
	// Lookahead is the sample-queue depth L (default 10).
	Lookahead int
	// Prefetch enables the lookahead prefetcher: while a step computes, a
	// background fill stage walks the upcoming batches' key sets, fills
	// predicted cache misses from host memory and window-pins the rows so
	// eviction cannot victimize anything the window will re-touch. Cached
	// engines only (EngineFrugal, EngineFrugalSync).
	Prefetch bool
	// PrefetchDepth bounds how many future batches may be prefetched but
	// not yet trained (default: Lookahead). Requires Prefetch; for
	// EngineFrugal it must not exceed Lookahead (the sample queue is the
	// only source of future key sets).
	PrefetchDepth int
	// FlushThreads is the background flusher count (default 8).
	FlushThreads int
	// DequeueBatch bounds each flushing thread's batched dequeue — the
	// Fig 7 batch size (default 64). EngineFrugal only.
	DequeueBatch int
	// Queue overrides the P²F priority-queue implementation (default: the
	// paper's two-level PQ sized for the step count). NewTreeHeapQueue
	// builds the Exp #4 lock-based baseline. EngineFrugal only.
	Queue PriorityQueue
	// Optimizer selects the embedding optimizer: OptimizerSGD (default)
	// or OptimizerAdagrad (row-wise Adagrad; the accumulator update rides
	// the P²F flush path to host memory).
	Optimizer Optimizer
	// AdagradEps stabilises the Adagrad denominator (default 1e-6).
	// Ignored by OptimizerSGD.
	AdagradEps float32
	// CheckConsistency verifies the §3.3 synchronous-consistency
	// invariant after every gate pass (cheap; on by default in examples).
	CheckConsistency bool
	// FaultPlan injects a deterministic fault schedule into the run —
	// flusher crashes and stalls, trainer straggler delays, transient
	// host-write failures — for resilience testing. Build one with
	// ParseFaultPlan or GenerateFaultPlan; the zero value injects nothing.
	// Result.Recovery and Snapshot report what was injected and healed.
	FaultPlan FaultPlan
	// Recovery tunes the P²F self-healing layer: flusher heartbeats,
	// the respawn budget and backoff, and the gate watchdog's degrade
	// timeout. The zero value enables it with defaults (EngineFrugal
	// only); set Recovery.Disabled to opt out entirely.
	Recovery Recovery
	// Seed drives parameter initialisation and synthetic data.
	Seed int64
	// OnStep, when set, is invoked once per completed global training
	// step by the last trainer to commit it, outside the gate's critical
	// path. It must be fast and non-blocking — a slow callback stalls
	// that trainer's next step (the gate and the flusher pool are never
	// blocked by it). Use it for progress bars, loss curves, or feeding
	// an external metrics pipeline.
	OnStep func(StepStats)
	// ColdTier allocates the embedding table as a frequency-aware tiered
	// slab: a hot head of full-precision f32 rows plus a quantized int8
	// cold tail (per-row affine scale/zero, dequantized on read and
	// requantized on write). Promotion and demotion are driven by decayed
	// access frequency at P²F flush boundaries, so tier moves land at
	// consistency points the gate already covers. Incompatible with Slab.
	ColdTier bool
	// HotFraction sizes the hot head as a fraction of the table (default
	// 0.1). Requires ColdTier; must be in (0, 1].
	HotFraction float64
	// Slab overrides the job's parameter slab with an external row store —
	// typically DialShardSlab over uncoordinated frugal-shard nodes, which
	// places the embedding table on the store tier instead of in-process
	// host memory. The workload's Rows/Dim must match the slab's shape;
	// the slab owns initialisation (Seed does not re-init it), and
	// OptimizerAdagrad is rejected (the accumulator is host-memory state).
	Slab RowStore
	// Observability enables the runtime metrics registry and step-event
	// tracer (see TrainingJob.Snapshot and TrainingJob.WriteTrace). The
	// zero value keeps every instrumentation point a no-op.
	Observability ObsOptions
}

// ObsOptions configures the observability layer of a job.
type ObsOptions struct {
	// Enabled turns on metric counters and step tracing.
	Enabled bool
	// TraceCapacity is the event ring size, rounded up to a power of two
	// (default 65536). The ring keeps the newest events; Snapshot reports
	// how many were overwritten. Negative disables tracing but keeps the
	// metric counters.
	TraceCapacity int
}

// StepStats is the per-step progress report delivered to Config.OnStep:
// step number, global loss, summed gate-stall time, and the flush
// backlog (pending g-entries) at completion time.
type StepStats = runtime.StepStats

// Snapshot is a live copy of a job's observability metrics — cache
// traffic, gate stalls, flush accounting, priority-queue operations,
// tier moves, faults and step timings. Its cache, flush, fault and step
// counts are the ones Result reports. See TrainingJob.Snapshot.
type Snapshot = obs.Snapshot

// ErrCanceled is the typed error RunContext returns when its context is
// canceled: it wraps ctx.Err(), so errors.Is(err, context.Canceled)
// works, and errors.As(err, &target) recovers the wrapper.
type ErrCanceled = runtime.ErrCanceled

// PriorityQueue is the P²F priority-queue contract (Config.Queue). The
// built-in implementations are the paper's two-level PQ (the default) and
// the TreeHeap baseline from NewTreeHeapQueue.
type PriorityQueue = pq.Queue

// NewTreeHeapQueue builds the lock-based binary-heap priority queue the
// paper evaluates against in Exp #4, sized for `hint` expected entries.
// Pass it as Config.Queue to reproduce that comparison on a real job.
func NewTreeHeapQueue(hint int) PriorityQueue { return pq.NewTreeHeap(hint) }

// FaultPlan is a deterministic, reproducible fault schedule
// (Config.FaultPlan): a sorted set of fault events with a canonical
// String() form that ParseFaultPlan round-trips.
type FaultPlan = fault.Plan

// FaultEvent is one scheduled fault in a FaultPlan.
type FaultEvent = fault.Event

// FaultKind enumerates the injectable fault kinds.
type FaultKind = fault.Kind

// The injectable fault kinds.
const (
	// FaultFlusherCrash kills one flushing thread at a dequeue batch
	// (EngineFrugal only; the self-healing pool respawns it).
	FaultFlusherCrash = fault.KindFlusherCrash
	// FaultFlusherStall freezes one flushing thread for a duration
	// (EngineFrugal only; the heartbeat supervisor supersedes it).
	FaultFlusherStall = fault.KindFlusherStall
	// FaultTrainerDelay makes one trainer straggle before a step's gate.
	FaultTrainerDelay = fault.KindTrainerDelay
	// FaultHostWriteFail fails a window of host writes transiently; the
	// writer retries with exponential backoff.
	FaultHostWriteFail = fault.KindHostWriteFail
)

// FaultGenSpec shapes GenerateFaultPlan's random schedules.
type FaultGenSpec = fault.GenSpec

// ParseFaultPlan parses the fault-plan mini-grammar (the cmd/frugal-train
// -fault-plan syntax): semicolon-separated clauses
//
//	crash:flusher=<slot>@batch=<n>
//	stall:flusher=<slot>@batch=<n>,dur=<duration>
//	delay:gpu=<gpu>@step=<s>,dur=<duration>
//	hostfail@write=<ordinal>[,count=<k>]
//
// Errors are typed (*fault.ParseError) and name the offending clause.
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.Parse(spec) }

// GenerateFaultPlan draws a random-but-reproducible fault schedule: the
// same seed and spec always yield the identical plan.
func GenerateFaultPlan(seed int64, spec FaultGenSpec) FaultPlan { return fault.Generate(seed, spec) }

// Recovery tunes the P²F self-healing layer (Config.Recovery).
type Recovery = p2f.Recovery

// RecoveryStats is the fault/recovery accounting in Result.Recovery.
type RecoveryStats = runtime.RecoveryStats

// RowStore is the parameter-slab surface a training job reads and writes
// (Config.Slab). The default is the job's own in-process host slab;
// DialShardSlab builds one over remote frugal-shard nodes.
type RowStore = runtime.RowStore

// Optimizer selects the embedding optimizer.
type Optimizer = runtime.Optimizer

// The embedding optimizers.
const (
	// OptimizerSGD applies row -= lr·grad.
	OptimizerSGD = runtime.OptSGD
	// OptimizerAdagrad applies row-wise Adagrad (one accumulated
	// squared-gradient scalar per row).
	OptimizerAdagrad = runtime.OptAdagrad
)

func (c Config) runtimeConfig() runtime.Config {
	rc := runtime.Config{
		Engine:           c.Engine,
		Optimizer:        c.Optimizer,
		AdagradEps:       c.AdagradEps,
		NumGPUs:          c.NumGPUs,
		CacheRatio:       c.CacheRatio,
		LR:               c.LR,
		Lookahead:        c.Lookahead,
		Prefetch:         c.Prefetch,
		PrefetchDepth:    c.PrefetchDepth,
		FlushThreads:     c.FlushThreads,
		DequeueBatch:     c.DequeueBatch,
		Queue:            c.Queue,
		CheckConsistency: c.CheckConsistency,
		Seed:             c.Seed,
		OnStep:           c.OnStep,
		Recovery:         c.Recovery,
		ColdTier:         c.ColdTier,
		HotFraction:      c.HotFraction,
		Slab:             c.Slab,
	}
	if !c.FaultPlan.Empty() {
		// Each build gets a fresh injector: the injector is stateful (it
		// tracks fire-once triggers and the host-write ordinal), so two jobs
		// built from one Config must not share one.
		rc.Faults = fault.NewInjector(c.FaultPlan)
	}
	if c.Observability.Enabled {
		// Shard the hot counters so trainers and flusher threads never
		// contend on a cache line.
		shards := c.NumGPUs
		if shards < 1 {
			shards = 1
		}
		if ft := c.FlushThreads; ft <= 0 {
			if shards < 8 {
				shards = 8 // the FlushThreads default
			}
		} else if ft > shards {
			shards = ft
		}
		rc.Observer = obs.New(obs.Options{
			Shards:        shards,
			TraceCapacity: c.Observability.TraceCapacity,
		})
	}
	return rc
}

// Result reports a finished training run: per-step losses, wall time,
// stall time, cache statistics, and flush accounting.
type Result = runtime.Result

// Dataset describes one of the paper's Table 2 datasets (shape parameters
// for the synthetic stand-in generators).
type Dataset = data.Spec

// The Table 2 dataset registry.
var (
	DatasetFB15k    = data.FB15k
	DatasetFreebase = data.Freebase
	DatasetWikiKG   = data.WikiKG
	DatasetAvazu    = data.Avazu
	DatasetCriteo   = data.Criteo
	DatasetCriteoTB = data.CriteoTB
)

// Datasets returns the Table 2 registry.
func Datasets() []Dataset { return data.Specs() }

// DatasetByName resolves a Table 2 dataset by name.
func DatasetByName(name string) (Dataset, error) { return data.SpecByName(name) }

// TrainingJob is a configured training run.
type TrainingJob struct {
	job *runtime.Job
}

// Run executes the job to completion.
func (j *TrainingJob) Run() (Result, error) { return j.job.Run() }

// RunContext executes the job until completion or ctx cancellation. On
// cancellation every trainer goroutine stops cleanly, the P²F epilogue
// drains all committed updates to host memory, the flusher pool shuts
// down, and the partial Result (the fully completed prefix of steps) is
// returned together with a *ErrCanceled wrapping ctx.Err(). An
// already-canceled context returns before any training work starts.
func (j *TrainingJob) RunContext(ctx context.Context) (Result, error) {
	return j.job.RunContext(ctx)
}

// Snapshot returns a live copy of the job's observability metrics. Safe
// to call at any time — before, during, or after a run (serve it from a
// metrics endpoint while training). With Config.Observability disabled it
// returns the zero Snapshot, except the live queue depths.
func (j *TrainingJob) Snapshot() Snapshot { return j.job.Snapshot() }

// WriteTrace dumps the job's step-event trace as JSONL, oldest event
// first — gate passes and blocks, flush enqueue/dequeue/apply, cache
// hits/misses/evictions, collective phases, step completions — for
// offline timeline analysis. Call after the run finishes; it errors when
// Config.Observability was not enabled.
func (j *TrainingJob) WriteTrace(w io.Writer) error { return j.job.WriteTrace(w) }

// HostRow returns a copy of one embedding row from host memory (for
// inspection after training). It is nil under a Config.Slab override —
// read the external store instead.
func (j *TrainingJob) HostRow(key uint64) []float32 {
	if j.job.Host() == nil {
		return nil
	}
	return j.job.Host().Snapshot(key)
}

// SaveCheckpoint writes the embedding table (and optimizer state, when
// Adagrad is in use) to w. Call after Run returns — the P²F epilogue has
// drained every pending update into host memory by then.
func (j *TrainingJob) SaveCheckpoint(w io.Writer) error {
	if j.job.Host() == nil {
		return fmt.Errorf("frugal: checkpoints need the job's own host slab (Config.Slab is set)")
	}
	return j.job.Host().Save(w)
}

// RestoreCheckpoint loads an embedding table saved by SaveCheckpoint,
// warm-starting the job. Call before Run. The checkpoint's shape (rows ×
// dim) must match the job's.
func (j *TrainingJob) RestoreCheckpoint(r io.Reader) error {
	if j.job.Host() == nil {
		return fmt.Errorf("frugal: checkpoints need the job's own host slab (Config.Slab is set)")
	}
	return j.job.Host().Load(r)
}

// RECOptions configures a recommendation (DLRM) job.
type RECOptions struct {
	// Scale divides the dataset's ID space for laptop-scale runs
	// (default 100 000; use 1 for the full published shape).
	Scale int64
	// Batch is the global batch size (default: the dataset's).
	Batch int
	// Steps bounds the run length (default 200).
	Steps int64
	// Hidden overrides the top-MLP hidden sizes (default 512-512-256).
	Hidden []int
}

// KGOptions configures a knowledge-graph embedding job.
type KGOptions struct {
	// Model is one of TransE, DistMult, ComplEx, SimplE (default TransE).
	Model string
	// Gamma is the TransE margin (default 12).
	Gamma float32
	// Scale divides the graph size (default 10 000; 1 = published shape).
	Scale int64
	// Batch is the triples per global batch (default: the dataset's).
	Batch int
	// NegSample is the shared negatives per batch (default 200).
	NegSample int
	// Steps bounds the run length (default 200).
	Steps int64
	// Dim overrides the embedding dimension (default: the dataset's 400;
	// smaller dims make quick runs cheap).
	Dim int
}

// MicroOptions configures an embedding-only microbenchmark job (the
// workload family of Exp #1).
type MicroOptions struct {
	// Distribution is uniform, zipf-0.9 or zipf-0.99 (default zipf-0.9).
	Distribution string
	// KeySpace is the number of distinct keys (default 100 000).
	KeySpace uint64
	// Dim is the embedding dimension (default 32).
	Dim int
	// Batch is keys per step (default 256).
	Batch int
	// Steps bounds the run (default 100).
	Steps int64
}

// GNNOptions configures a graph-learning (GraphSAGE-style link
// prediction) job over a synthetic power-law graph.
type GNNOptions struct {
	// Nodes is the graph size (default 10 000).
	Nodes int
	// Attach is the preferential-attachment degree (default 3).
	Attach int
	// Fanout is the sampled neighbors per node (default 5).
	Fanout int
	// Dim is the node-embedding dimension (default 32).
	Dim int
	// Edges is the positive edges per global step (default 128).
	Edges int
	// Steps bounds the run (default 200).
	Steps int64
}

// KGEval reports link-prediction quality: for each held-out triple the
// true tail is ranked against `Candidates` random entities by the scoring
// function over the trained embeddings.
type KGEval struct {
	// MRR is the mean reciprocal rank of the true tail (1.0 = always
	// first; 1/(Candidates+1) ≈ random).
	MRR float64
	// HitsAt10 is the fraction of triples whose true tail ranks in the
	// top 10.
	HitsAt10 float64
	// Triples and Candidates record the evaluation size.
	Triples    int
	Candidates int
}

// EvaluateKnowledgeGraph measures link-prediction quality of a trained KG
// job on freshly drawn held-out triples (same synthetic distribution,
// disjoint random stream). Pass the same cfg/ds/opt used to build the job
// so the entity/relation spaces line up. Call after Run.
func EvaluateKnowledgeGraph(job *TrainingJob, cfg Config, ds Dataset, opt KGOptions,
	triples, candidates int) (KGEval, error) {

	if ds.Kind != data.KG {
		return KGEval{}, fmt.Errorf("frugal: %s is not a knowledge-graph dataset", ds.Name)
	}
	if opt.Model == "" {
		opt.Model = "TransE"
	}
	if opt.Scale <= 0 {
		opt.Scale = 10_000
	}
	if triples <= 0 {
		triples = 200
	}
	if candidates <= 0 {
		candidates = 50
	}
	tm, err := model.KGModelByName(opt.Model)
	if err != nil {
		return KGEval{}, err
	}
	spec := ds.Scaled(opt.Scale)
	// Held-out triples: a fresh stream far from the training seed.
	stream, err := data.NewKGStream(spec, cfg.Seed+9973, triples, 1, 1)
	if err != nil {
		return KGEval{}, err
	}
	batch, ok := stream.NextBatch()
	if !ok {
		return KGEval{}, fmt.Errorf("frugal: empty evaluation stream")
	}
	negGen := data.NewUniform(cfg.Seed+31337, uint64(spec.Vertices))

	ev := KGEval{Triples: len(batch.Heads), Candidates: candidates}
	for i := range batch.Heads {
		h := job.HostRow(batch.Heads[i])
		r := job.HostRow(batch.Rels[i])
		tRow := job.HostRow(batch.Tails[i])
		trueScore := tm.Score(h, r, tRow)
		rank := 1
		for c := 0; c < candidates; c++ {
			cand := job.HostRow(negGen.Next())
			if tm.Score(h, r, cand) > trueScore {
				rank++
			}
		}
		ev.MRR += 1 / float64(rank)
		if rank <= 10 {
			ev.HitsAt10++
		}
	}
	ev.MRR /= float64(ev.Triples)
	ev.HitsAt10 /= float64(ev.Triples)
	return ev, nil
}

// ReplayOptions configures a trace-replay job.
type ReplayOptions struct {
	// Dim is the embedding dimension (default 32).
	Dim int
	// Rows overrides the table height (default: max key in the trace + 1).
	Rows int64
	// Steps bounds the run (default: the whole trace).
	Steps int64
}

// Experiment identifies one reproducible table or figure of the paper.
type Experiment struct {
	ID    string // e.g. "table1", "fig3b", "exp1" … "exp11"
	Title string
}

// Experiments lists every reproducible table and figure.
func Experiments() []Experiment {
	var out []Experiment
	for _, r := range bench.Runners() {
		out = append(out, Experiment{ID: r.ID, Title: r.Title})
	}
	return out
}

// RunExperiment regenerates one table or figure, writing its rendered
// rows/series to w. quick trades sweep resolution for speed.
func RunExperiment(w io.Writer, id string, quick bool) error {
	r, ok := bench.ByID(id)
	if !ok {
		return fmt.Errorf("frugal: unknown experiment %q (see Experiments())", id)
	}
	fmt.Fprintf(w, "######## %s — %s ########\n\n", r.ID, r.Title)
	_, err := io.WriteString(w, r.Run(quick))
	return err
}

// RunAllExperiments regenerates every table and figure in order.
func RunAllExperiments(w io.Writer, quick bool) { bench.RunAll(w, quick) }

// PerfReport is the serialised perf baseline (BENCH_baseline.json): the
// wall-clock benchmark suite's ns/op, allocs/op and bytes/op per entry,
// plus the environment it was measured in.
type PerfReport = bench.PerfReport

// PerfBench is one benchmark row of a PerfReport.
type PerfBench = bench.PerfBench

// RunPerfSuite executes the fixed perf-baseline suite — tensor kernels,
// the per-engine training step loop, and the priority queue's
// enqueue/drain cycle — and returns the measurements. quick shortens each
// benchmark's window for CI smoke runs (allocs/op stays exact; ns/op gets
// noisier). The caller fills PerfReport.GitSHA.
func RunPerfSuite(quick bool) PerfReport { return bench.RunPerf(quick) }

// WritePerfReport serialises a report as indented JSON.
func WritePerfReport(w io.Writer, rep PerfReport) error { return bench.WritePerf(w, rep) }

// ReadPerfReport parses a report written by WritePerfReport.
func ReadPerfReport(r io.Reader) (PerfReport, error) { return bench.ReadPerf(r) }

// ComparePerfReports diffs current against a committed baseline:
// allocation regressions come back as failures (CI fails on them, they
// are machine-independent); ns/op swings and suite mismatches come back
// as advisory notes.
func ComparePerfReports(current, baseline PerfReport) (failures, notes []string) {
	return bench.ComparePerf(current, baseline)
}
