// Package p2f implements Frugal's priority-based proactively flushing
// algorithm (§3.3) and the controller process around it (§3.2, Fig 5): the
// sample (lookahead) queue, the update staging path, the per-parameter
// g-entry directory, background flushing threads, and the synchronous-
// consistency gate that blocks a training step s until the front of the
// priority queue is strictly greater than s.
//
// The package is hardware-agnostic: it drives real goroutines and real
// data structures, and delegates the actual application of updates to a
// FlushSink (the runtime applies them to the host-memory parameter slab;
// the simulator charges virtual time for them).
package p2f

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"frugal/internal/fault"
	"frugal/internal/lfht"
	"frugal/internal/obs"
	"frugal/internal/pq"
)

// KeyDelta is one parameter update produced by a trainer's backward pass.
// StateDelta carries the optimizer-state increment alongside the row delta
// (0 under plain SGD).
type KeyDelta struct {
	Key        uint64
	Delta      []float32
	StateDelta float32
}

// Batch is one prefetched global training batch from the sample queue.
type Batch struct {
	Step int64
	Keys []uint64
}

// FlushSink applies drained write sets to host memory. Every path that
// lands updates — the flusher pool, FlushKey and the degraded write-through
// commit — reaches it through FlushBatch: a flusher hands over its whole
// batch with no g-entry lock held (the in-flight floor, see WaitForStep,
// keeps the gate closed for the batch's readers until the call returns),
// while FlushKey and degraded commits hand over one set with that key's
// g-entry lock held. Sets of one key appear in step order, and a key whose
// write set is in flight is not handed to the sink again until it lands.
// WriteSet.Deferred reports whether the set was drained from the ∞ slot
// with no reader waiting inside the lookahead window, or urgently; tier
// maintenance weighs the two differently, since urgency is evidence of
// heat. The sets, their Updates slices and the Delta buffers are owned by
// the controller and reused after FlushBatch returns: implementations must
// not retain them (the runtime pools the buffers).
type FlushSink interface {
	FlushBatch(sets []pq.WriteSet)
}

// FlushSinkFunc adapts a function to the FlushSink interface.
type FlushSinkFunc func(sets []pq.WriteSet)

// FlushBatch calls f.
func (f FlushSinkFunc) FlushBatch(sets []pq.WriteSet) { f(sets) }

// TraceSource provides the upcoming global batches, in training order.
// Implementations must be safe for use by the single prefetch goroutine.
type TraceSource interface {
	// Next returns the keys of the next global batch, or ok=false when the
	// trace is exhausted.
	Next() (keys []uint64, ok bool)
}

// Options configures a Controller.
type Options struct {
	// MaxStep is the number of training steps; step numbers are
	// 0 … MaxStep-1. Required.
	MaxStep int64
	// Lookahead is L, the prefetch depth of the sample queue (§3.2;
	// default 10).
	Lookahead int
	// FlushThreads is the number of background flushing threads
	// (default 8, the paper's evaluation default).
	FlushThreads int
	// Trainers is the number of training processes that commit updates
	// each step (one per GPU; default 1).
	Trainers int
	// Sink applies flushed updates to host memory. Required.
	Sink FlushSink
	// Source supplies the batch trace. Required.
	Source TraceSource
	// OnPrefetch, when non-nil, is invoked by the prefetch goroutine for
	// every batch it pulls from the trace, after the batch's future reads
	// are registered in the g-entry directory and before the batch is
	// published on the sample queue. The runtime's lookahead prefetcher
	// rides this hook to learn which keys batches S+1..S+L will touch.
	// The callback must not retain keys past its return (the slice is the
	// trace's) and must be fast — it runs on the prefetch goroutine and
	// backpressures the lookahead window.
	OnPrefetch func(step int64, keys []uint64)
	// Queue overrides the priority queue implementation (default: a
	// TwoLevelPQ whose ring covers queueWindow). Exp #4 passes a TreeHeap
	// here.
	Queue pq.Queue
	// DequeueBatchSize bounds each flusher's batched dequeue (default 64).
	DequeueBatchSize int
	// KeySpace is the number of keys the controller serves (the rows of
	// the embedding table, or of the shard). It sizes the g-entry
	// directory to about KeySpace/4 segments (at most 2^18), so a lookup
	// walks one or two nodes. Zero sizes it for 1<<16 keys.
	KeySpace int64
	// Obs attaches the job's observability layer (nil = no-op): the
	// flusher pool reports dequeue/apply events and latency, the sample
	// queue its depth, and the priority queue its operation counts.
	Obs *obs.Observer
	// Faults is the deterministic fault injector consulted on the flusher
	// path (nil = no faults, the default).
	Faults *fault.Injector
	// Recovery configures the self-healing layer (heartbeats, respawns,
	// gate watchdog). The zero value enables it with defaults.
	Recovery Recovery
}

func (o *Options) normalize() error {
	if o.MaxStep <= 0 {
		return fmt.Errorf("p2f: MaxStep must be positive, got %d", o.MaxStep)
	}
	if o.Sink == nil {
		return errors.New("p2f: Sink is required")
	}
	if o.Source == nil {
		return errors.New("p2f: Source is required")
	}
	if o.Lookahead <= 0 {
		o.Lookahead = 10
	}
	if o.FlushThreads <= 0 {
		o.FlushThreads = 8
	}
	if o.Trainers <= 0 {
		o.Trainers = 1
	}
	if o.DequeueBatchSize <= 0 {
		o.DequeueBatchSize = 64
	}
	if o.KeySpace <= 0 {
		o.KeySpace = 1 << 16
	}
	o.Recovery.normalize()
	return nil
}

// Stats aggregates observable behaviour of the controller, for the
// experiment harness and tests.
type Stats struct {
	// StallTime is the total time trainers spent blocked in WaitForStep.
	StallTime time.Duration
	// FlushedUpdates counts individual ⟨step, Δ⟩ updates flushed.
	FlushedUpdates int64
	// DeferredFlushes counts g-entries that were flushed from the ∞
	// priority slot — updates P²F successfully pushed off the critical
	// path (the k₃ case of Fig 6).
	DeferredFlushes int64
	// UrgentFlushes counts g-entries flushed with a finite priority, plus
	// every write set landed outside the flusher pool (FlushKey and
	// degraded write-through commits).
	UrgentFlushes int64
	// CoalescedFlushes counts FlushKey callers that piggybacked on
	// another caller's in-flight flush instead of running their own —
	// refresh-storm pressure the singleflight layer absorbed. No
	// production path reads it: it is the serve and p2f tests'
	// observation hook into the singleflight layer.
	CoalescedFlushes int64
}

// Controller orchestrates P²F: it owns the g-entry directory, the priority
// queue, the prefetch goroutine filling the sample queue, and the flusher
// pool. One Controller serves all training processes of a job.
type Controller struct {
	opt   Options
	queue pq.Queue
	dir   *lfht.Map[*pq.GEntry]

	sample chan Batch // the sample queue: capacity = Lookahead

	mu            sync.Mutex
	gate          *sync.Cond
	commits       map[int64]int
	committedStep int64 // all trainers have committed steps ≤ this

	// stages lists every live flushing stage (copy-on-write, guarded by
	// stageMu for writers) so the gate can read their in-flight floors;
	// staged counts the g-entries claimed by a stage and not yet landed.
	stages  atomic.Pointer[[]*stage]
	stageMu sync.Mutex
	staged  atomic.Int64

	// watermark mirrors committedStep for lock-free readers (the serving
	// layer checks it on every bounded-staleness read; taking c.mu there
	// would contend with the gate). Updated under c.mu, so it is monotone.
	watermark atomic.Int64

	stopping atomic.Bool
	stop     chan struct{}
	wg       sync.WaitGroup
	started  bool

	stallNanos      atomic.Int64
	flushedUpdates  atomic.Int64
	deferredFlushes atomic.Int64
	urgentFlushes   atomic.Int64

	// Singleflight state for FlushKey: at most one serving-triggered
	// flush per key is in flight; concurrent requesters wait on it.
	flightMu  sync.Mutex
	flight    map[uint64]*flushCall
	coalesced atomic.Int64

	// flushHooks holds the registered flush observers ([]func(uint64)),
	// copy-on-write so notifyFlush stays lock-free. See AddFlushHook.
	flushHooks atomic.Value
	hookMu     sync.Mutex

	// Self-healing state (see recovery.go). waiters counts trainers
	// currently blocked in WaitForStep — the watchdog's "someone is owed
	// progress" signal. degraded flips once, to write-through mode.
	slots          []*flusherSlot
	waiters        atomic.Int64
	degraded       atomic.Bool
	degradedStep   atomic.Int64
	crashes        atomic.Int64
	stallsDetected atomic.Int64
	respawns       atomic.Int64
	redistributed  atomic.Int64

	// Observability sinks (nil = no-op, the default).
	fl       *obs.FlushObs
	faultObs *obs.FaultObs
}

// queueWindow is the span of finite priorities the default queue's ring
// must hold at once. A finite priority is the next read step of a key
// with pending writes: at least the oldest step some trainer has not
// committed, at most the newest step the prefetcher has registered. The
// two are at most Lookahead (the sample queue) + 1 (the batch the
// prefetcher holds) + Trainers + 1 (batches handed out and not yet
// committed, and the trainer skew at the gate) apart. The window is twice
// that, so a slot the gate leaves behind has a full window's time to be
// recycled before its priority comes round again.
func queueWindow(o Options) int64 {
	return 2 * int64(o.Lookahead+o.Trainers+2)
}

// NewController validates opt and builds a controller. Call Start to launch
// the prefetch and flusher goroutines.
func NewController(opt Options) (*Controller, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	q := opt.Queue
	if q == nil {
		var err error
		q, err = pq.NewTwoLevelPQ(pq.TwoLevelOptions{Window: queueWindow(opt)})
		if err != nil {
			return nil, err
		}
	}
	c := &Controller{
		opt:           opt,
		queue:         q,
		dir:           lfht.NewWithHint[*pq.GEntry](int(min(opt.KeySpace, 1<<20))),
		sample:        make(chan Batch, opt.Lookahead),
		commits:       make(map[int64]int),
		flight:        make(map[uint64]*flushCall),
		committedStep: -1,
		stop:          make(chan struct{}),
		fl:            opt.Obs.FlushSink(),
		faultObs:      opt.Obs.FaultSink(),
	}
	c.stages.Store(new([]*stage))
	c.watermark.Store(-1)
	c.degradedStep.Store(-1)
	c.slots = make([]*flusherSlot, opt.FlushThreads)
	for i := range c.slots {
		c.slots[i] = &flusherSlot{}
	}
	if po := opt.Obs.PQSink(); po != nil {
		if qo, ok := q.(interface{ SetObserver(*obs.PQObs) }); ok {
			qo.SetObserver(po)
		}
	}
	c.gate = sync.NewCond(&c.mu)
	return c, nil
}

// Queue exposes the controller's priority queue (tests, harness).
func (c *Controller) Queue() pq.Queue { return c.queue }

// Start launches the prefetch goroutine and the flusher pool.
func (c *Controller) Start() {
	if c.started {
		panic("p2f: Controller started twice")
	}
	c.started = true
	c.wg.Add(1)
	go c.prefetchLoop()
	now := time.Now().UnixNano()
	for i := 0; i < c.opt.FlushThreads; i++ {
		c.slots[i].heartbeat.Store(now)
		c.wg.Add(1)
		go c.flusherLoop(i, 0)
	}
	if !c.opt.Recovery.Disabled {
		c.wg.Add(1)
		go c.supervisorLoop()
	}
}

// Stop terminates the background goroutines. Pending (deferred) updates
// that were never drained stay in the queue; call DrainAll first to flush
// everything, as the paper's epilogue does ("after training, the system
// waits for flushing threads to write all deferred parameter updates").
func (c *Controller) Stop() {
	if c.stopping.Swap(true) {
		return
	}
	close(c.stop)
	c.broadcast()
	c.wg.Wait()
}

func (c *Controller) broadcast() {
	c.mu.Lock()
	c.gate.Broadcast()
	c.mu.Unlock()
}

// ----------------------------------------------------------------------
// Prefetch (sample queue)

// prefetchLoop pulls batches from the trace source, registers their keys'
// future reads in the g-entry directory, and publishes the batch on the
// sample queue. The channel's capacity is the lookahead depth L, so the
// loop naturally stays exactly L steps ahead of training.
func (c *Controller) prefetchLoop() {
	defer c.wg.Done()
	defer close(c.sample)
	for step := int64(0); step < c.opt.MaxStep; step++ {
		if c.stopping.Load() {
			return
		}
		keys, ok := c.opt.Source.Next()
		if !ok {
			return
		}
		c.registerReads(step, keys)
		if c.opt.OnPrefetch != nil {
			// After registerReads: by the time the runtime's prefetcher sees
			// the keys, their future reads are already visible to the gate.
			c.opt.OnPrefetch(step, keys)
		}
		select {
		case c.sample <- Batch{Step: step, Keys: keys}:
		case <-c.stop:
			return
		}
	}
}

// registerReads inserts step into the read set of every key's g-entry and
// adjusts queued priorities (an entry with pending writes becomes more
// urgent when an upcoming read is discovered).
func (c *Controller) registerReads(step int64, keys []uint64) {
	for _, k := range keys {
		g, _ := c.dir.GetOrInsert(k, func() *pq.GEntry { return pq.NewGEntry(k) })
		g.Mu.Lock()
		g.AddRead(step)
		switch {
		case g.InFlight != nil:
			// A write set of this key is on its way to the sink (and any
			// newer one waits for it outside the queue): keep the gate
			// closed for the new reader until the stage lands.
			lowerFloor(g.InFlight, step)
		case g.InQueue:
			if newP := g.ComputePriority(); newP != g.Priority {
				c.queue.AdjustPriority(g, g.Priority, newP)
			}
		}
		g.Mu.Unlock()
	}
}

// NextBatch pops the next prefetched batch from the sample queue. ok=false
// when the trace is exhausted (or the controller is stopping).
func (c *Controller) NextBatch() (Batch, bool) {
	b, ok := <-c.sample
	return b, ok
}

// NextBatchCtx is NextBatch with cancellation: ok=false as soon as ctx is
// done, even if the prefetcher still has batches in flight.
func (c *Controller) NextBatchCtx(ctx context.Context) (Batch, bool) {
	select {
	case b, ok := <-c.sample:
		return b, ok
	case <-ctx.Done():
		return Batch{}, false
	}
}

// SampleDepth reports the current fill of the sample (lookahead) queue.
func (c *Controller) SampleDepth() int { return len(c.sample) }

// ----------------------------------------------------------------------
// Consistency gate

// WaitForStep blocks until training step s may start: all trainers have
// committed step s-1 (so every pending update is visible to the queue),
// and both the priority at the front of the queue and every flushing
// stage's in-flight floor are strictly greater than s (invariant (2) of
// §3.3 — no g-entry has a pending or in-flight write and an upcoming read
// at a step ≤ s). It returns the time spent blocked.
func (c *Controller) WaitForStep(s int64) time.Duration {
	c.waiters.Add(1)
	defer c.waiters.Add(-1)
	var stalled time.Duration
	c.mu.Lock()
	for !c.stepReady(s) && !c.stopping.Load() {
		if c.degraded.Load() {
			// Write-through mode: no pool is owed this work anymore.
			// Drain the backlog from this trainer's own goroutine, then
			// re-evaluate (commits still arrive via commitDegraded).
			c.mu.Unlock()
			c.drainSync(-1)
			c.mu.Lock()
			if c.stepReady(s) || c.stopping.Load() {
				break
			}
		}
		start := time.Now()
		c.gate.Wait()
		stalled += time.Since(start)
	}
	c.mu.Unlock()
	if stalled > 0 {
		c.stallNanos.Add(int64(stalled))
	}
	// Scan-range compression: once the gate for s passes, no g-entry can
	// carry a finite priority below s+1 anymore (§3.4).
	if r, ok := c.queue.(interface{ RaiseLowerBound(int64) }); ok {
		r.RaiseLowerBound(s + 1)
	}
	return stalled
}

// stepReady evaluates the gate condition. Caller holds c.mu.
//
// The floors are read on both sides of Top(). Entries cross between the
// queue and a stage in both directions, each time with the floor covering
// the crossing: a claim publishes the floor before the entry leaves the
// queue (so a Top() that misses it is followed by a floor read that sees
// it), and a landing enqueues the key's newer write set before the floor
// drops (so a floor read that misses it is followed by a Top() that sees
// it).
func (c *Controller) stepReady(s int64) bool {
	if c.committedStep < s-1 {
		return false
	}
	return c.inflightFloor() > s && c.queue.Top() > s && c.inflightFloor() > s
}

// inflightFloor is the minimum in-flight floor over all flushing stages
// (Inf when nothing is in flight).
func (c *Controller) inflightFloor() int64 {
	m := pq.Inf
	for _, st := range *c.stages.Load() {
		if f := st.floor.Load(); f < m {
			m = f
		}
	}
	return m
}

// ----------------------------------------------------------------------
// Update staging (commit path)

// CommitStep records one trainer's parameter updates for step s: each
// key's read set drops s, the gradient joins the write set, and the
// g-entry is (re-)queued under its new priority. When all trainers have
// committed s the committed watermark advances and gate waiters wake.
//
// Synchronous training contract: all trainers must have finished *reading*
// step s before any trainer commits it (the runtime enforces this with its
// step barrier).
//
// The updates slice itself is not retained — callers may reuse it for the
// next step. The Delta buffers inside it ARE retained (they join the write
// sets) until a flushing thread hands them to the FlushSink; a pooling
// caller gets them back through its sink.
func (c *Controller) CommitStep(s int64, updates []KeyDelta) {
	if c.degraded.Load() {
		c.commitDegraded(s, updates)
		return
	}
	for _, kd := range updates {
		g, _ := c.dir.GetOrInsert(kd.Key, func() *pq.GEntry { return pq.NewGEntry(kd.Key) })
		g.Mu.Lock()
		g.RemoveRead(s)
		g.AddWriteState(s, kd.Delta, kd.StateDelta)
		newP := g.ComputePriority()
		switch {
		case g.InFlight != nil:
			// The stage applying the key's previous write set enqueues
			// this one when it lands, so the key's adds stay in step
			// order; until then its floor stands in for it at the gate.
			lowerFloor(g.InFlight, newP)
		case g.InQueue:
			if newP != g.Priority {
				c.queue.AdjustPriority(g, g.Priority, newP)
			}
		default:
			c.queue.Enqueue(g, newP)
		}
		g.Mu.Unlock()
	}
	c.committed(s)
}

// committed counts one trainer's commit of step s. Once every trainer has
// committed it the watermark advances; gate waiters wake either way.
func (c *Controller) committed(s int64) {
	c.mu.Lock()
	c.commits[s]++
	if c.commits[s] == c.opt.Trainers {
		delete(c.commits, s)
		if s > c.committedStep {
			c.committedStep = s
			c.watermark.Store(s)
		}
	}
	c.gate.Broadcast()
	c.mu.Unlock()
}

// ----------------------------------------------------------------------
// Serving support (internal/serve)
//
// The serving layer reads parameters straight from host memory while
// training runs. Host memory lags the logical training state by whatever
// the flusher pool has not applied yet, so these three primitives expose
// the freshness bound: the committed-step watermark, a per-key flush lag
// against it, and a synchronous force-flush for reads that cannot
// tolerate any lag.

// AddFlushHook registers fn to be called with the key of every write set
// the controller pushes through its sink — the flusher pool, FlushKey,
// and the degraded write-through path alike. It is the index-maintenance
// feed: a hook pairs the key with the watermark current at notification
// time to bound how far a derived structure (e.g. the serving layer's IVF
// index) lags host memory.
//
// Contract: fn runs on the flushing goroutine with the key's g-entry lock
// held, so it must be cheap and non-blocking (enqueue work, never flush,
// query, or take slow locks). Hooks cannot be removed; register before
// serving traffic starts.
func (c *Controller) AddFlushHook(fn func(key uint64)) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	var hooks []func(uint64)
	if v := c.flushHooks.Load(); v != nil {
		old := v.([]func(uint64))
		hooks = make([]func(uint64), len(old), len(old)+1)
		copy(hooks, old)
	}
	c.flushHooks.Store(append(hooks, fn))
}

// notifyFlush invokes the registered flush hooks. Called with g.Mu held
// once a write set has reached the sink; lock-free for the common no-hook
// case.
func (c *Controller) notifyFlush(key uint64) {
	v := c.flushHooks.Load()
	if v == nil {
		return
	}
	for _, fn := range v.([]func(uint64)) {
		fn(key)
	}
}

// Watermark returns the committed-step watermark: every trainer has
// committed all steps ≤ the returned value (-1 before the first step
// completes). Together with RowStaleness it bounds how far a host row can
// lag the training frontier. Lock-free; safe from any goroutine.
func (c *Controller) Watermark() int64 { return c.watermark.Load() }

// RowStaleness reports how many gate steps the host copy of key may lag
// the committed watermark. lag = 0 means every committed update of the
// key has been flushed to host memory; lag = n > 0 means updates from the
// n most recent committed steps may still be pending in the key's write
// set. The watermark is loaded *before* the write set is inspected, so
// the guarantee is one-sided in the safe direction: the host row is
// missing at most `lag` committed steps relative to the returned
// watermark (commits that land after the call can only make the row
// fresher, never staler than reported).
func (c *Controller) RowStaleness(key uint64) (lag, watermark int64) {
	wm := c.watermark.Load()
	g, ok := c.dir.Get(key)
	if !ok {
		return 0, wm // never touched by training: host copy is authoritative
	}
	oldest := int64(-1)
	g.Mu.Lock()
	if g.InFlight != nil {
		oldest = g.InFlightStep // an in-flight set predates everything in W
	} else if len(g.W) > 0 {
		oldest = g.W[0].Step // W is appended in commit order: oldest first
	}
	g.Mu.Unlock()
	if oldest < 0 {
		return 0, wm
	}
	if lag = wm - oldest + 1; lag < 0 {
		lag = 0 // pending write from an uncommitted (in-flight) step only
	}
	return lag, wm
}

// flushKey is FlushKey's uncoalesced body: it drains key's pending write
// set through the sink and reports whether anything was flushed. The
// inline flush mirrors commitDegraded's write-through critical section
// (g.Mu held across the one-set sink call, which also excludes the
// flusher pool — ProcessBatch runs its visit under the same lock), and
// the emptied entry then rides the AdjustPriority path to the ∞ slot so
// the consistency gate's Top() scan stops charging it for work that is
// already on the host. The residue node left in the queue is culled by
// the next flusher visit, exactly like a crash-redistributed entry. A
// write set a flusher has in flight is waited for first, so the key's
// updates still land in step order.
func (c *Controller) flushKey(key uint64) bool {
	g, ok := c.dir.Get(key)
	if !ok {
		return false
	}
	c.lockLanded(g)
	if len(g.W) == 0 {
		g.Mu.Unlock()
		return false
	}
	c.landWrites(g)
	if g.InQueue && g.Priority != pq.Inf {
		c.queue.AdjustPriority(g, g.Priority, pq.Inf)
	}
	g.Mu.Unlock()
	c.broadcast() // the gate may have been waiting on exactly this entry
	return true
}

// lockLanded locks g.Mu once no write set of g is in flight, so a direct
// sink apply never overtakes a staged one (float adds must land in step
// order for runs to stay bit-identical).
func (c *Controller) lockLanded(g *pq.GEntry) {
	for {
		g.Mu.Lock()
		if g.InFlight == nil {
			return
		}
		g.Mu.Unlock()
		time.Sleep(5 * time.Microsecond)
	}
}

// landWrites hands g's whole pending write set to the sink as a one-set
// urgent batch and runs the flush hooks. Caller holds g.Mu with nothing of
// g in flight (see lockLanded).
func (c *Controller) landWrites(g *pq.GEntry) {
	var start time.Time
	if c.fl != nil {
		start = time.Now()
	}
	w := g.TakeWrites()
	c.opt.Sink.FlushBatch([]pq.WriteSet{{Key: g.Key, Updates: w}})
	c.notifyFlush(g.Key)
	c.flushedUpdates.Add(int64(len(w)))
	c.urgentFlushes.Add(1)
	g.FlushedWrites(w) // the sink does not retain w
	if c.fl != nil {
		c.fl.Applied(-1, g.Key, time.Since(start))
	}
}

// flushCall is one in-flight FlushKey execution. wm is the
// committed-step watermark loaded by the leader *before* its TakeWrites:
// every update committed at or before wm is covered by this flush, so a
// waiter that only needs freshness up to wm may safely piggyback.
type flushCall struct {
	done    chan struct{}
	wm      int64
	flushed bool
}

// FlushKey synchronously drains key's pending write set through the sink,
// making the host row reflect every update committed so far, and reports
// whether anything was flushed. This is the serving layer's refresh path
// for `fresh` and over-bound `bounded(k)` reads.
//
// Concurrent calls for one key coalesce (singleflight): when N readers of
// one hot stale key all demand a refresh, one of them runs the flush
// (flushKey) and the rest wait on it — one urgent flush instead of N
// goroutines hammering the g-entry lock (and, through broadcast, the
// controller mutex the trainers' gate sleeps on). Coalescing preserves
// the freshness contract: a waiter joins an in-flight call only if that
// call's watermark (loaded before its TakeWrites) covers the watermark
// current at the waiter's own entry. Otherwise the in-flight flush may
// predate commits the waiter must observe, and the waiter retries after
// it completes — at most one extra flush, never a stale admit.
func (c *Controller) FlushKey(key uint64) bool {
	need := c.watermark.Load()
	for {
		c.flightMu.Lock()
		if call, ok := c.flight[key]; ok {
			joinable := call.wm >= need
			c.flightMu.Unlock()
			<-call.done
			if joinable {
				c.coalesced.Add(1)
				return call.flushed
			}
			continue // the in-flight flush started before our watermark
		}
		call := &flushCall{done: make(chan struct{}), wm: c.watermark.Load()}
		c.flight[key] = call
		c.flightMu.Unlock()

		call.flushed = c.flushKey(key)

		c.flightMu.Lock()
		delete(c.flight, key)
		c.flightMu.Unlock()
		close(call.done)
		return call.flushed
	}
}

// ----------------------------------------------------------------------
// Flusher pool

// flusherLoop is one background flushing thread (§3.2 component 4): it
// claims the highest-priority g-entries in batches and applies their
// pending updates through the sink, one sink call per batch (see stage).
//
// gen is the slot generation this goroutine was spawned under: the loop
// exits as soon as the supervisor bumps the slot's generation (a stalled
// thread that wakes up finds itself superseded by its replacement). Each
// iteration heartbeats, then consults the fault injector with the slot's
// lifetime dequeue-batch ordinal. Faults fire only between batches, so a
// crashing thread never holds staged work.
func (c *Controller) flusherLoop(id int, gen int64) {
	defer c.wg.Done()
	slot := c.slots[id]
	st := c.newStage(id)
	defer c.releaseStage(st)
	for {
		if c.stopping.Load() || slot.gen.Load() != gen {
			return
		}
		slot.heartbeat.Store(time.Now().UnixNano())
		batch := slot.batches.Add(1)
		if act, dur := c.opt.Faults.Flusher(id, batch); act != fault.ActNone {
			c.faultObs.Injected(id, batch, int64(actionKind(act)))
			if act == fault.ActCrash {
				c.crashFlusher(slot)
				return
			}
			// Stall: sleep without heartbeating. If the stall outlives
			// StallTimeout the supervisor supersedes this generation.
			c.sleepFault(dur)
			continue
		}
		if !c.flushBatch(st) {
			time.Sleep(30 * time.Microsecond)
		}
	}
}

// actionKind maps a flusher-path injector action to its fault kind code
// for the trace.
func actionKind(a fault.Action) fault.Kind {
	if a == fault.ActCrash {
		return fault.KindFlusherCrash
	}
	return fault.KindFlusherStall
}

// stage is one flushing goroutine's batch in transit: the write sets it
// has claimed out of the queue and not yet applied, and the in-flight
// floor that stands in for them at the gate. A claimed entry leaves the
// queue's Top() before its writes reach the sink, so the stage publishes
// the smallest slot priority it has staged as its floor first. Until the
// batch lands the stage owns its entries: a read registered for one, or
// a newer write set committed to one, lowers the floor instead of
// entering the queue, and the landing enqueues that newer set — so no
// other flusher can apply a key's updates out of step order. The floor
// returns to Inf once the batch has landed.
type stage struct {
	floor   atomic.Int64
	id      int // flusher id for observability (-1 for drainers)
	visit   func(g *pq.GEntry, slotPriority int64) bool
	sets    []pq.WriteSet
	entries []*pq.GEntry // aligned with sets
	claimed int          // queue entries claimed in the current batch
}

// newStage registers a stage so the gate reads its floor.
func (c *Controller) newStage(id int) *stage {
	st := &stage{id: id}
	st.floor.Store(pq.Inf)
	st.visit = func(g *pq.GEntry, slotPriority int64) bool { return c.claim(st, g, slotPriority) }
	c.stageMu.Lock()
	old := *c.stages.Load()
	next := make([]*stage, len(old), len(old)+1)
	copy(next, old)
	next = append(next, st)
	c.stages.Store(&next)
	c.stageMu.Unlock()
	return st
}

// releaseStage unregisters a stage whose last batch has landed.
func (c *Controller) releaseStage(st *stage) {
	c.stageMu.Lock()
	old := *c.stages.Load()
	next := make([]*stage, 0, len(old))
	for _, o := range old {
		if o != st {
			next = append(next, o)
		}
	}
	c.stages.Store(&next)
	c.stageMu.Unlock()
}

// lowerFloor moves an in-flight floor down to step.
func lowerFloor(f *atomic.Int64, step int64) {
	for {
		cur := f.Load()
		if step >= cur || f.CompareAndSwap(cur, step) {
			return
		}
	}
}

// claim is a stage's ProcessBatch visit, called with g.Mu held while the
// entry is still visible to Top(). It takes the entry's write set into
// the stage, publishing the floor first. Queued entries are never in
// flight (see stage), so the write set is always the key's oldest.
func (c *Controller) claim(st *stage, g *pq.GEntry, slotPriority int64) bool {
	if !g.InQueue || g.Priority != slotPriority {
		return false // stale residue, or a duplicate concurrent visit
	}
	g.InQueue = false
	st.claimed++
	if len(g.W) == 0 {
		return true // emptied by FlushKey or a degraded commit
	}
	lowerFloor(&st.floor, slotPriority)
	c.staged.Add(1)
	w := g.TakeWrites()
	g.InFlight, g.InFlightStep = &st.floor, w[0].Step
	deferred := slotPriority == pq.Inf
	if deferred {
		c.deferredFlushes.Add(1)
	} else {
		c.urgentFlushes.Add(1)
	}
	c.fl.Dequeued(st.id, g.Key, len(w))
	st.sets = append(st.sets, pq.WriteSet{Key: g.Key, Updates: w, Deferred: deferred})
	st.entries = append(st.entries, g)
	return true
}

// flushBatch runs one batch of a stage: claim up to DequeueBatchSize
// entries, apply their write sets with one sink call, then clear their
// in-flight marks (running the flush hooks and enqueueing any newer write
// set under each entry's lock), drop the floor, and wake the gate. It
// reports whether it did anything.
func (c *Controller) flushBatch(st *stage) (progress bool) {
	processed := c.queue.ProcessBatch(c.opt.DequeueBatchSize, st.visit)
	progress = processed > 0 || st.claimed > 0
	if len(st.sets) > 0 {
		var start time.Time
		if c.fl != nil {
			start = time.Now()
		}
		c.opt.Sink.FlushBatch(st.sets)
		var took time.Duration // each set's share of the one sink call
		if c.fl != nil {
			took = time.Since(start) / time.Duration(len(st.sets))
		}
		for i, g := range st.entries {
			ws := &st.sets[i]
			g.Mu.Lock()
			g.InFlight = nil
			c.notifyFlush(g.Key)
			// The sink is done with the slice (it must not retain it), so
			// the entry can reuse its capacity for the next write burst.
			g.FlushedWrites(ws.Updates)
			if len(g.W) > 0 && !g.InQueue {
				c.queue.Enqueue(g, g.ComputePriority())
			}
			g.Mu.Unlock()
			c.flushedUpdates.Add(int64(len(ws.Updates)))
			c.fl.Applied(st.id, g.Key, took)
		}
	}
	c.staged.Add(-int64(len(st.entries)))
	st.floor.Store(pq.Inf)
	clear(st.sets)
	clear(st.entries)
	st.sets, st.entries, st.claimed = st.sets[:0], st.entries[:0], 0
	// Any claim may have let the gate open: a landed or culled entry left
	// Top(), and a floor that held a waiter shut just dropped.
	// ProcessBatch's count alone cannot decide this: a concurrent visitor
	// may unlink a node this stage claimed.
	if progress {
		c.broadcast()
	}
	return progress
}

// idle reports that no update is pending in the queue or staged in a
// flushing batch. Len is read again after staged: a landing enqueues a
// key's newer write set before the stage leaves the staged count.
func (c *Controller) idle() bool {
	return c.queue.Len() == 0 && c.staged.Load() == 0 && c.queue.Len() == 0
}

// DrainAll blocks until every pending update has been flushed to the sink
// — the end-of-training epilogue. It must not be called concurrently with
// new CommitStep activity. The drain is cooperative: the caller flushes
// alongside the pool, so the epilogue completes even if every flushing
// thread has died and the respawn budget is spent.
func (c *Controller) DrainAll() {
	c.drainSync(-1)
}

// ----------------------------------------------------------------------
// Introspection

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	return Stats{
		StallTime:        time.Duration(c.stallNanos.Load()),
		FlushedUpdates:   c.flushedUpdates.Load(),
		DeferredFlushes:  c.deferredFlushes.Load(),
		UrgentFlushes:    c.urgentFlushes.Load(),
		CoalescedFlushes: c.coalesced.Load(),
	}
}

// CheckInvariant verifies invariant (2) of §3.3 for step s over the given
// keys: no key that step s is about to read may still have a pending
// (unflushed) write. It returns an error naming the first violating key.
// The runtime calls this after the gate in tests and debug builds; it
// must observe no violation, ever — that is the formal guarantee of P²F.
// A write set a flusher has taken but not yet applied counts as pending.
func (c *Controller) CheckInvariant(s int64, keys []uint64) error {
	for _, k := range keys {
		g, ok := c.dir.Get(k)
		if !ok {
			continue
		}
		g.Mu.Lock()
		bad := len(g.W) > 0 || g.InFlight != nil
		detail := ""
		if bad {
			detail = g.String()
			if g.InFlight != nil {
				detail += fmt.Sprintf(" in-flight@%d", g.InFlightStep)
			}
			for _, u := range g.W {
				detail += fmt.Sprintf(" w@%d", u.Step)
			}
			detail += fmt.Sprintf(" inQ=%v top=%d", g.InQueue, c.queue.Top())
		}
		g.Mu.Unlock()
		if bad {
			return fmt.Errorf("p2f: consistency violation at step %d: key %d: %s", s, k, detail)
		}
	}
	return nil
}
