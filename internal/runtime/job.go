package runtime

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"frugal/internal/cache"
	"frugal/internal/data"
	"frugal/internal/fault"
	"frugal/internal/obs"
	"frugal/internal/p2f"
	"frugal/internal/pq"
	"frugal/internal/stats"
	"frugal/internal/tensor"
)

// Engine selects the training data path.
type Engine string

// The runtime's engines (see the package comment).
const (
	EngineFrugal     Engine = "frugal"
	EngineFrugalSync Engine = "frugal-sync"
	EngineDirect     Engine = "direct"
)

// Config shapes a training job.
type Config struct {
	// Engine selects the data path (default EngineFrugal).
	Engine Engine
	// NumGPUs is the number of trainer goroutines (default 1).
	NumGPUs int
	// Rows is the embedding-table height (key space). Required.
	Rows int64
	// Dim is the embedding dimension. Required.
	Dim int
	// CacheRatio sizes each GPU's cache as a fraction of Rows (§4.1
	// default 0.05). Ignored by EngineDirect.
	CacheRatio float64
	// LR is the embedding learning rate (default 0.05).
	LR float32
	// Lookahead, FlushThreads and DequeueBatch configure the P²F
	// controller (defaults 10 / 8 / 64). EngineFrugal only.
	Lookahead    int
	FlushThreads int
	DequeueBatch int
	// Queue overrides the controller's priority queue (Exp #4).
	Queue pq.Queue
	// Prefetch enables the lookahead prefetcher: while step S computes, a
	// per-worker fill stage walks the key sets of batches S+1..S+depth,
	// fills predicted cache misses from host memory, and window-pins every
	// slot those batches will touch so eviction never victimizes a row the
	// window will re-request. Requires a cached engine (EngineFrugal or
	// EngineFrugalSync).
	Prefetch bool
	// PrefetchDepth is how many future batches the prefetcher keeps filled
	// and pinned ahead of training (default: Lookahead). Requires
	// Prefetch; for EngineFrugal it cannot exceed Lookahead — the
	// controller's sample queue only ever runs L batches ahead.
	PrefetchDepth int
	// Optimizer selects the embedding optimizer: OptSGD (default) or
	// OptAdagrad (row-wise Adagrad; the flushing threads apply the
	// accumulator on host memory alongside the row delta).
	Optimizer Optimizer
	// AdagradEps stabilises the Adagrad denominator (default 1e-6).
	AdagradEps float32
	// CheckConsistency verifies invariant (2) after every gate pass and
	// fails the job on violation. Tests enable it; it is cheap enough to
	// leave on in examples too.
	CheckConsistency bool
	// Seed drives parameter initialisation.
	Seed int64
	// Observer attaches the observability layer (internal/obs): live
	// metric counters threaded through the gate, the priority queue and
	// the flusher pool, plus the step-event tracer, and turns on
	// Job.Snapshot. nil (the default) keeps every instrumentation point a
	// no-op.
	Observer *obs.Observer
	// OnStep, when set, is invoked once per globally completed training
	// step — by the last trainer to commit it, outside the gate's critical
	// path. The callback must be fast and non-blocking: it runs on a
	// trainer goroutine, and a slow callback stalls that trainer's next
	// step (never the gate or the flusher pool).
	OnStep func(StepStats)
	// Faults is the deterministic fault injector (internal/fault) driving
	// flusher crashes/stalls, trainer straggler delays, and transient
	// host-write failures. nil (the default) injects nothing.
	Faults *fault.Injector
	// Recovery configures the P²F self-healing layer: flusher heartbeats,
	// respawn budget/backoff, and the gate watchdog's degrade timeout.
	// The zero value enables it with defaults. EngineFrugal only.
	Recovery p2f.Recovery
	// ColdTier allocates the job's host slab as a frequency-aware tiered
	// store: a hot head of full-precision f32 slots plus a quantized int8
	// cold tail (per-row affine scale/zero). Promotion and demotion ride
	// the P²F flush path, so tier moves land at consistency points the
	// gate already covers. Incompatible with Config.Slab (the external
	// store owns its representation).
	ColdTier bool
	// HotFraction sizes the hot head as a fraction of Rows (default 0.1).
	// Requires ColdTier; must be in (0, 1].
	HotFraction float64
	// Slab, when set, overrides the job's parameter slab with an external
	// row store — e.g. store.TrainSlab over a sharded deployment — and the
	// step loop reads and writes it instead of allocating host memory.
	// Rows/Dim must match the store's shape. The store owns initialisation
	// (Seed-based init is skipped), Host() returns nil (no checkpoints),
	// and OptAdagrad is rejected (the optimizer accumulator is host-memory
	// state the RowStore surface does not read back).
	Slab RowStore
}

// StepStats is the per-step progress report delivered to Config.OnStep.
type StepStats struct {
	// Step is the completed global step number.
	Step int64
	// Loss is the step's global training loss (summed over trainers).
	Loss float32
	// GateStall is the time trainers spent blocked at the consistency
	// gate for this step, summed over trainers (0 for gate-less engines).
	GateStall time.Duration
	// FlushBacklog is the number of g-entries pending in the priority
	// queue when the step completed (0 for non-Frugal engines).
	FlushBacklog int
}

// ErrCanceled reports a job stopped by context cancellation before
// completing all its steps. It wraps the context's error, so both
// errors.Is(err, context.Canceled) and errors.As(err, &ErrCanceled{})
// style checks work. The partial Result returned alongside it covers the
// steps that fully committed; the P²F epilogue has still drained every
// pending update of those steps to host memory.
type ErrCanceled struct {
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

// Error implements error.
func (e *ErrCanceled) Error() string { return "runtime: job canceled: " + e.Cause.Error() }

// Unwrap exposes the context error to errors.Is/As.
func (e *ErrCanceled) Unwrap() error { return e.Cause }

func (c *Config) normalize() error {
	if c.Engine == "" {
		c.Engine = EngineFrugal
	}
	switch c.Engine {
	case EngineFrugal, EngineFrugalSync, EngineDirect:
	default:
		return fmt.Errorf("runtime: unknown engine %q", c.Engine)
	}
	if c.NumGPUs <= 0 {
		c.NumGPUs = 1
	}
	if c.Rows <= 0 || c.Dim <= 0 {
		return fmt.Errorf("runtime: Rows and Dim are required (got %d, %d)", c.Rows, c.Dim)
	}
	if c.CacheRatio <= 0 {
		c.CacheRatio = 0.05
	}
	if c.CacheRatio > 1 {
		return fmt.Errorf("runtime: CacheRatio %v > 1", c.CacheRatio)
	}
	if c.LR <= 0 {
		c.LR = 0.05
	}
	if c.Lookahead <= 0 {
		c.Lookahead = 10
	}
	if c.FlushThreads <= 0 {
		c.FlushThreads = 8
	}
	if c.DequeueBatch <= 0 {
		c.DequeueBatch = 64
	}
	if c.PrefetchDepth < 0 {
		return fmt.Errorf("runtime: PrefetchDepth must be positive, got %d", c.PrefetchDepth)
	}
	if c.PrefetchDepth > 0 && !c.Prefetch {
		return errors.New("runtime: PrefetchDepth requires Prefetch")
	}
	if c.Prefetch {
		if c.Engine == EngineDirect {
			return fmt.Errorf("runtime: Prefetch requires a cached engine, not %q", c.Engine)
		}
		if c.PrefetchDepth == 0 {
			c.PrefetchDepth = c.Lookahead
		}
		if c.Engine == EngineFrugal && c.PrefetchDepth > c.Lookahead {
			return fmt.Errorf("runtime: PrefetchDepth %d exceeds Lookahead %d (the sample queue never runs further ahead)",
				c.PrefetchDepth, c.Lookahead)
		}
	}
	if c.HotFraction != 0 && !c.ColdTier {
		return errors.New("runtime: HotFraction requires ColdTier")
	}
	if c.ColdTier {
		if c.Slab != nil {
			return errors.New("runtime: ColdTier is incompatible with Config.Slab (the external store owns its representation)")
		}
		if c.HotFraction == 0 {
			c.HotFraction = 0.1
		}
		if c.HotFraction < 0 || c.HotFraction > 1 {
			return fmt.Errorf("runtime: HotFraction must be in (0, 1], got %g", c.HotFraction)
		}
	}
	switch c.Optimizer {
	case "":
		c.Optimizer = OptSGD
	case OptSGD, OptAdagrad:
	default:
		return fmt.Errorf("runtime: unknown optimizer %q", c.Optimizer)
	}
	if c.AdagradEps <= 0 {
		c.AdagradEps = 1e-6
	}
	return nil
}

// Optimizer names an embedding optimizer.
type Optimizer string

// The embedding optimizers.
const (
	// OptSGD applies rows -= lr·grad.
	OptSGD Optimizer = "sgd"
	// OptAdagrad applies row-wise Adagrad: each row keeps one accumulated
	// squared-gradient scalar G (mean over dimensions, the DLRM
	// convention) and steps by lr/√(G+ε).
	OptAdagrad Optimizer = "adagrad"
)

// shardWork is one worker's slice of a global step: the embedding keys it
// reads (occurrence order, duplicates allowed) and the compute callback
// that consumes the gathered rows and fills per-occurrence gradients,
// returning the shard loss.
type shardWork struct {
	keys    []uint64
	compute computeFunc
}

type computeFunc func(rows [][]float32, grads [][]float32) float32

// stepPayload carries all workers' shards for one global step. release
// hands the buffers behind it back to their generator; the step's last
// worker calls it once it has finished (finishStep).
type stepPayload struct {
	work    []shardWork
	release func()
}

// stepBuf is one step's payload and the buffers behind it. A generator
// takes one from its stepBufs, fills it in place and hands out its
// payload; the payload's release puts it back, so a run in steady state
// reuses a fixed set of buffers — about one per step in flight — instead
// of allocating per step.
type stepBuf struct {
	payload stepPayload
	shards  []shardBuf
	keys    []uint64 // every worker's keys, back to back
}

// shardBuf is one worker's part of a stepBuf, which the worker's compute
// callback reads.
type shardBuf struct {
	keys   []uint64  // a window of stepBuf.keys
	count  int       // the items (samples, triples, edges) the worker got
	labels []float32 // REC: the labels of the worker's samples
	preds  []float32 // REC: prediction scratch
}

// stepBufs is a generator's pool of step buffers for n workers. mk binds
// worker w's compute callback to its shardBuf once per buffer.
type stepBufs struct {
	n    int
	mk   func(w int, sh *shardBuf) computeFunc
	mu   sync.Mutex
	free []*stepBuf // room for every buffer made, so release never grows it
	made int
}

func newStepBufs(n int, mk func(w int, sh *shardBuf) computeFunc) *stepBufs {
	return &stepBufs{n: n, mk: mk}
}

// get returns a buffer for a step of items items dealt round-robin to
// the workers (item i to worker i mod n), each item carrying per keys and
// every worker extra more. Each worker's key window is empty with room
// for exactly its keys, so the generator fills it by appending, in order,
// without growing it.
func (p *stepBufs) get(items, per, extra int) *stepBuf {
	p.mu.Lock()
	var b *stepBuf
	if k := len(p.free); k > 0 {
		b = p.free[k-1]
		p.free = p.free[:k-1]
	} else {
		p.made++
		p.free = slices.Grow(p.free, p.made)
	}
	p.mu.Unlock()
	if b == nil {
		b = &stepBuf{
			payload: stepPayload{work: make([]shardWork, p.n)},
			shards:  make([]shardBuf, p.n),
		}
		for w := range b.shards {
			b.payload.work[w].compute = p.mk(w, &b.shards[w])
		}
		b.payload.release = func() {
			p.mu.Lock()
			p.free = append(p.free, b)
			p.mu.Unlock()
		}
	}
	b.keys = slices.Grow(b.keys[:0], items*per+p.n*extra)
	off := 0
	for w := range b.shards {
		count := (items - w + p.n - 1) / p.n
		end := off + count*per + extra
		b.shards[w].keys = b.keys[off:off:end]
		b.shards[w].count = count
		off = end
	}
	return b
}

// ready points each worker's shard at its filled key window and returns
// the payload.
func (b *stepBuf) ready() stepPayload {
	for w := range b.shards {
		b.payload.work[w].keys = b.shards[w].keys
	}
	return b.payload
}

// Result aggregates a finished job.
type Result struct {
	Steps      int64
	Losses     []float32
	WallTime   time.Duration
	StallTime  time.Duration
	CacheStats cache.Stats
	Flushed    int64
	Deferred   int64
	// SamplesPerSec is wall-clock training throughput in global samples
	// per second (the caller supplies samples per step).
	SamplesPerSec float64
	// TrainAUC is the area under the ROC curve of the training-time
	// predictions (REC jobs only; 0 when the task produces none). Because
	// predictions are made before each sample's update, this is an honest
	// progressive-validation metric.
	TrainAUC float64
	// Recovery reports what the fault-injection and self-healing layers
	// did during the run (all-zero on fault-free, healthy runs).
	Recovery RecoveryStats
}

// RecoveryStats aggregates the run's fault and recovery accounting
// across the injector, the P²F self-healing layer, and the host slab.
type RecoveryStats struct {
	// FaultsInjected counts scheduled faults that fired (all kinds).
	FaultsInjected int64 `json:"faultsInjected"`
	// FlusherCrashes / StallsDetected / FlusherRespawns / Redistributed
	// mirror the controller's RecoveryStats (see internal/p2f).
	FlusherCrashes  int64 `json:"flusherCrashes"`
	StallsDetected  int64 `json:"stallsDetected"`
	FlusherRespawns int64 `json:"flusherRespawns"`
	Redistributed   int64 `json:"redistributed"`
	// HostWriteRetries counts transient host-write failures retried.
	HostWriteRetries int64 `json:"hostWriteRetries"`
	// Degraded reports the gate watchdog switching the run to
	// write-through; DegradedStep is the committed watermark at the
	// transition (-1 when not degraded).
	Degraded     bool  `json:"degraded"`
	DegradedStep int64 `json:"degradedStep"`
}

// Job is a configured training run over a generic payload stream.
type Job struct {
	cfg Config
	// slab is the parameter store the step loop reads and writes — the
	// job's own *Host unless Config.Slab overrode it.
	slab   RowStore
	host   *Host // job-owned host slab; nil under a Config.Slab override
	caches []*cache.Cache
	// prefetchers is the per-worker lookahead fill stage (prefetch.go);
	// nil unless Config.Prefetch.
	prefetchers []*prefetcher
	ctrl        *p2f.Controller
	trace       *data.PayloadTrace[stepPayload]
	barrier     *Barrier
	steps       int64
	samples     int // per global step, for throughput accounting
	// rowPool recycles per-key delta rows across steps (DESIGN.md §5d).
	// Shared by all trainers; EngineFrugal's flush sink returns buffers here
	// after the host apply.
	rowPool *rowPool

	// Observability sinks, cached off cfg.Observer (all nil-safe no-ops
	// when observability is off).
	gateObs  *obs.GateObs
	stepObs  *obs.StepObs
	flObs    *obs.FlushObs
	faultObs *obs.FaultObs
	tracer   *obs.Tracer

	mu        sync.Mutex
	losses    []float32
	pending   map[int64]stepAgg // per-step completion accounting
	completed int64             // fully committed steps (prefix property)
	preds     []float64         // progressive-validation reservoir (scores)
	labels    []float64
}

// stepAgg accumulates one step's per-trainer contributions until the last
// trainer commits it.
type stepAgg struct {
	done  int
	stall time.Duration
}

// predReservoir bounds the AUC sample memory.
const predReservoir = 1 << 16

// recordPreds appends training-time predictions for the TrainAUC metric.
func (j *Job) recordPreds(preds, labels []float32) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range preds {
		if len(j.preds) >= predReservoir {
			return
		}
		j.preds = append(j.preds, float64(preds[i]))
		j.labels = append(j.labels, float64(labels[i]))
	}
}

// newJob wires the shared machinery. gen produces one stepPayload per
// global step along with the union of keys the step touches.
func newJob(cfg Config, steps int64, samplesPerStep int,
	gen func() (stepPayload, []uint64, bool)) (*Job, error) {

	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if steps <= 0 {
		return nil, errors.New("runtime: steps must be positive")
	}
	var (
		host *Host
		slab RowStore
	)
	if cfg.Slab != nil {
		if cfg.Optimizer == OptAdagrad {
			return nil, errors.New("runtime: OptAdagrad requires the job's own host slab (Config.Slab is set)")
		}
		if cfg.Slab.Rows() != cfg.Rows || cfg.Slab.Dim() != cfg.Dim {
			return nil, fmt.Errorf("runtime: Config.Slab shape %dx%d, want Rows=%d Dim=%d",
				cfg.Slab.Rows(), cfg.Slab.Dim(), cfg.Rows, cfg.Dim)
		}
		slab = cfg.Slab
	} else {
		var err error
		if cfg.ColdTier {
			host, err = NewTieredHost(cfg.Rows, cfg.Dim, cfg.HotFraction)
		} else {
			host, err = NewHost(cfg.Rows, cfg.Dim)
		}
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		// Embedding rows use the standard 1/√dim uniform init (independent of
		// table height — Xavier over the row count would vanish for large
		// tables and stall multiplicative KG scorers).
		bound := float32(1 / math.Sqrt(float64(cfg.Dim)))
		host.Init(func(_ uint64, row []float32) {
			tensor.UniformInit(rng, row, bound)
		})
		slab = host
	}

	j := &Job{
		cfg:      cfg,
		slab:     slab,
		host:     host,
		rowPool:  newRowPool(cfg.Dim),
		trace:    data.NewPayloadTrace(gen),
		barrier:  NewBarrier(cfg.NumGPUs),
		steps:    steps,
		samples:  samplesPerStep,
		gateObs:  cfg.Observer.GateSink(),
		stepObs:  cfg.Observer.StepSink(),
		flObs:    cfg.Observer.FlushSink(),
		faultObs: cfg.Observer.FaultSink(),
		tracer:   cfg.Observer.TraceSink(),
		pending:  make(map[int64]stepAgg),
	}
	if cfg.Faults != nil && host != nil {
		faultObs := j.faultObs
		host.SetWriteFault(func() bool {
			if !cfg.Faults.HostWriteFail() {
				return false
			}
			faultObs.Injected(-1, -1, int64(fault.KindHostWriteFail))
			return true
		})
	}
	if cfg.Optimizer == OptAdagrad {
		host.EnableOptimizerState()
	}
	if cfg.Engine != EngineDirect {
		rowsPerGPU := int(float64(cfg.Rows) * cfg.CacheRatio)
		if rowsPerGPU < cache.Ways {
			rowsPerGPU = cache.Ways
		}
		for g := 0; g < cfg.NumGPUs; g++ {
			c := cache.MustNew(rowsPerGPU, cfg.Dim)
			c.SetTracer(j.tracer, g)
			j.caches = append(j.caches, c)
		}
		if cfg.Prefetch {
			for g := 0; g < cfg.NumGPUs; g++ {
				j.prefetchers = append(j.prefetchers,
					newPrefetcher(g, cfg.NumGPUs, j.caches[g], slab, cfg.PrefetchDepth, cfg.Lookahead))
			}
		}
	}
	if cfg.Engine == EngineFrugal {
		var onPrefetch func(int64, []uint64)
		if j.prefetchers != nil {
			onPrefetch = j.feedPrefetch
		}
		ctrl, err := p2f.NewController(p2f.Options{
			MaxStep:          steps,
			KeySpace:         cfg.Rows,
			Lookahead:        cfg.Lookahead,
			FlushThreads:     cfg.FlushThreads,
			Trainers:         cfg.NumGPUs,
			DequeueBatchSize: cfg.DequeueBatch,
			Queue:            cfg.Queue,
			Obs:              cfg.Observer,
			Faults:           cfg.Faults,
			Recovery:         cfg.Recovery,
			OnPrefetch:       onPrefetch,
			Sink:             &frugalSink{job: j, tier: tierHost(host)},
			Source:           j.trace,
		})
		if err != nil {
			return nil, err
		}
		j.ctrl = ctrl
	}
	return j, nil
}

// frugalSink is the P²F flush sink for the Frugal engine: it applies
// drained write sets to the parameter store and recycles the delta
// buffers (the gate guarantees no reader still needs them once
// applied). On a tiered host it also feeds the tier maintainer the
// flush-boundary access signal — promotion and demotion ride the flush
// path, so tier moves land at a consistency point the gate already
// covers, with deferred (∞-slot) flushes counting as colder evidence
// than urgent ones.
type frugalSink struct {
	job  *Job
	tier *Host // non-nil only when the job's own host is tiered
}

// tierHost returns h when it is tiered, else nil — the sink's guard for
// Config.Slab overrides and untiered hosts alike.
func tierHost(h *Host) *Host {
	if h != nil && h.Tiered() {
		return h
	}
	return nil
}

// FlushBatch applies a batch of write sets with a single slab write, then
// recycles its buffers and runs tier maintenance per key — still before
// a flusher batch's in-flight floor drops (or, for a one-set FlushKey or
// degraded commit, under the key's g-entry lock), so tier moves stay
// gate-covered.
func (s *frugalSink) FlushBatch(sets []pq.WriteSet) {
	s.job.slab.ApplyWriteSets(sets)
	for i := range sets {
		s.job.rowPool.PutUpdates(sets[i].Updates)
		if s.tier != nil {
			s.tier.TierMaintain(sets[i].Key, sets[i].Deferred)
		}
	}
}

// Host exposes the job-owned parameter slab (tests, examples,
// checkpoints). It is nil when Config.Slab overrode the slab with an
// external store.
func (j *Job) Host() *Host { return j.host }

// Controller exposes the P²F controller, or nil for non-Frugal engines.
func (j *Job) Controller() *p2f.Controller { return j.ctrl }

// Run executes the job to completion and returns aggregate results.
func (j *Job) Run() (Result, error) { return j.RunContext(context.Background()) }

// RunContext executes the job until completion or ctx cancellation.
//
// Cancellation is step-synchronized: the dispatcher is the single
// decision point, so every trainer sees exactly the same set of steps and
// the read/step barriers stay balanced — no goroutine is ever stranded in
// a barrier or at the gate. On cancellation the in-flight steps finish,
// the P²F epilogue drains every committed update to host memory, the
// flusher pool stops, and RunContext returns the partial Result for the
// completed prefix of steps together with a *ErrCanceled wrapping
// ctx.Err(). An already-canceled ctx returns before any goroutine starts.
func (j *Job) RunContext(ctx context.Context) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, &ErrCanceled{Cause: err}
	}
	start := time.Now()
	if j.ctrl != nil {
		j.ctrl.Start()
		defer j.ctrl.Stop()
	}
	if j.prefetchers != nil {
		j.startPrefetchers()
		// Deferred after ctrl.Stop, so it runs first (LIFO): a stopping
		// prefetcher unblocks any feed the controller's prefetch goroutine
		// is parked in, letting ctrl.Stop join it.
		defer j.stopPrefetchers()
	}
	j.losses = make([]float32, j.steps)

	chans := make([]chan stepMsg, j.cfg.NumGPUs)
	for w := range chans {
		chans[w] = make(chan stepMsg, 1)
	}
	go j.dispatch(ctx, chans)

	var wg sync.WaitGroup
	for w := 0; w < j.cfg.NumGPUs; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			j.workerLoop(w, chans[w])
		}(w)
	}
	wg.Wait()
	// Stop the prefetchers before reading cache stats below — their fill
	// goroutines would otherwise still be mutating the directories.
	j.stopPrefetchers()

	if j.ctrl != nil {
		j.ctrl.DrainAll()
	}
	c := j.counts()
	res := Result{
		Steps:      c.steps,
		Losses:     j.losses[:c.steps],
		WallTime:   time.Since(start),
		StallTime:  c.flush.StallTime,
		CacheStats: c.cache,
		Flushed:    c.flush.FlushedUpdates,
		Deferred:   c.flush.DeferredFlushes,
		Recovery:   c.recovery,
	}
	res.SamplesPerSec = float64(j.samples) * float64(c.steps) / res.WallTime.Seconds()
	if len(j.preds) > 0 {
		res.TrainAUC = stats.AUC(j.preds, j.labels)
	}
	if err := ctx.Err(); err != nil {
		return res, &ErrCanceled{Cause: err}
	}
	return res, nil
}

func (j *Job) addLoss(step int64, loss float32) {
	j.mu.Lock()
	j.losses[step] += loss
	j.mu.Unlock()
}

// finishStep records one trainer completing its shard of a step; the last
// trainer to arrive marks the step globally complete, hands the step's
// payload buffers back (release), feeds the step observability counters,
// and fires Config.OnStep. Runs after commit, off the gate's critical
// path.
func (j *Job) finishStep(gpu int, step int64, stall, wall time.Duration, release func()) {
	j.stepObs.WorkerStep(gpu, step, wall)
	j.mu.Lock()
	agg := j.pending[step]
	agg.done++
	agg.stall += stall
	if agg.done < j.cfg.NumGPUs {
		j.pending[step] = agg
		j.mu.Unlock()
		return
	}
	delete(j.pending, step)
	j.completed++
	loss := j.losses[step]
	j.mu.Unlock()
	release()
	if j.cfg.OnStep != nil {
		backlog := 0
		if j.ctrl != nil {
			backlog = j.ctrl.Queue().Len()
		}
		j.cfg.OnStep(StepStats{Step: step, Loss: loss, GateStall: agg.stall, FlushBacklog: backlog})
	}
}

// counts is every training counter, read from the component that keeps
// it: the caches, the P²F controller, the fault injector, the host slab
// and the job's completed-step count. RunContext builds Result from it
// and Snapshot the owner-kept fields of obs.Snapshot, so the two report
// one count of each event.
type counts struct {
	steps    int64
	cache    cache.Stats
	flush    p2f.Stats
	recovery RecoveryStats
	tier     TierStats
}

// counts reads the counters. Safe while the job runs: every counter it
// reads is an atomic or lock-guarded.
func (j *Job) counts() counts {
	var c counts
	j.mu.Lock()
	c.steps = j.completed
	j.mu.Unlock()
	for _, ca := range j.caches {
		s := ca.Stats()
		c.cache.Hits += s.Hits
		c.cache.Misses += s.Misses
		c.cache.StaleHits += s.StaleHits
		c.cache.Inserted += s.Inserted
		c.cache.Evicted += s.Evicted
		c.cache.PrefetchFills += s.PrefetchFills
		c.cache.PrefetchHits += s.PrefetchHits
		c.cache.PrefetchLate += s.PrefetchLate
		c.cache.PrefetchWasted += s.PrefetchWasted
		c.cache.PinRejects += s.PinRejects
		c.cache.WindowPinRejects += s.WindowPinRejects
	}
	c.recovery.DegradedStep = -1
	if j.ctrl != nil {
		c.flush = j.ctrl.Stats()
		rs := j.ctrl.RecoveryStats()
		c.recovery.FlusherCrashes = rs.FlusherCrashes
		c.recovery.StallsDetected = rs.StallsDetected
		c.recovery.FlusherRespawns = rs.Respawns
		c.recovery.Redistributed = rs.Redistributed
		c.recovery.Degraded = rs.Degraded
		c.recovery.DegradedStep = rs.DegradedStep
	}
	c.recovery.FaultsInjected = j.cfg.Faults.Stats().Injected
	if j.host != nil {
		c.recovery.HostWriteRetries = j.host.WriteRetries()
		c.tier = j.host.TierStats()
	}
	return c
}

// Snapshot returns a live copy of the job's observability metrics, plus
// the current flush backlog and sample-queue depth. Safe to call at any
// time, including concurrently with RunContext. With observability
// disabled it returns the zero Snapshot, except the live depths (they
// need no observer).
func (j *Job) Snapshot() obs.Snapshot {
	var s obs.Snapshot
	if j.cfg.Observer != nil {
		// The owners' counters are read first: trainers count an update
		// as enqueued before they commit it, so a live FlushApplied never
		// exceeds the FlushEnqueued read after it.
		c := j.counts()
		s = j.cfg.Observer.Snapshot()
		s.CacheLookups = c.cache.Hits + c.cache.Misses
		s.CacheHits = c.cache.Hits
		s.CacheMisses = c.cache.Misses
		s.CacheStaleHits = c.cache.StaleHits
		s.CacheInserts = c.cache.Inserted
		s.CacheEvictions = c.cache.Evicted
		s.CachePrefetchFills = c.cache.PrefetchFills
		s.CachePrefetchHits = c.cache.PrefetchHits
		s.CachePrefetchLate = c.cache.PrefetchLate
		s.CachePrefetchWasted = c.cache.PrefetchWasted

		s.GateStallTime = c.flush.StallTime
		s.FlushApplied = c.flush.FlushedUpdates
		s.FlushedEntries = c.flush.DeferredFlushes + c.flush.UrgentFlushes
		s.DeferredEntries = c.flush.DeferredFlushes
		s.UrgentEntries = c.flush.UrgentFlushes

		s.StepsCompleted = c.steps

		s.FaultsInjected = c.recovery.FaultsInjected
		s.FlusherRespawns = c.recovery.FlusherRespawns
		s.RedistributedEntries = c.recovery.Redistributed
		s.HostWriteRetries = c.recovery.HostWriteRetries
		if c.recovery.Degraded {
			s.Degradations = 1
		}

		s.TierPromotions = c.tier.Promotions
		s.TierDemotions = c.tier.Demotions
		s.TierDeclined = c.tier.Declined
		s.TierColdWrites = c.tier.ColdWrites
		s.TierDequantReads = c.tier.DequantReads
	}
	if j.ctrl != nil {
		s.FlushBacklog = int64(j.ctrl.Queue().Len())
		s.SampleQueueDepth = int64(j.ctrl.SampleDepth())
	}
	return s
}

// WriteTrace dumps the step-event trace as JSONL (one event per line; see
// internal/obs for the schema). Call after RunContext returns — a dump
// concurrent with a running job can observe torn events. It errors when
// the job was built without observability.
func (j *Job) WriteTrace(w io.Writer) error {
	t := j.cfg.Observer.TraceSink()
	if t == nil {
		return errors.New("runtime: observability is not enabled on this job")
	}
	return t.DumpJSONL(w)
}

// Barrier is a reusable synchronisation barrier for the trainers' step
// phases (read barrier before commits; step barrier before the next gate).
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     uint64
}

// NewBarrier builds a barrier for n parties.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n parties have arrived.
func (b *Barrier) Wait() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
