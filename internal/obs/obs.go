// Package obs is Frugal's runtime observability layer: an
// allocation-conscious metrics registry (sharded counters and log-linear
// histograms) plus a typed step-event tracer (ring buffer with a JSONL
// dump) that together expose where an iteration's time goes — the Fig 3c
// / Fig 12 breakdown of the paper — while a job is running.
//
// Everything is nil-safe: every instrumentation hook is a method on a
// pointer that may be nil, and a nil receiver is a no-op costing one
// predictable branch. The hot paths (cache probes, priority-queue
// operations, gate waits) are instrumented unconditionally in their
// packages and pay nothing when observability is disabled — the default.
//
// obs counts only what no other package counts: gate passes and blocks,
// enqueued updates and priority-queue operations. Cache, tier, flush,
// fault and step totals are kept once, by the component they happen in,
// and the runtime reads them into the same Snapshot.
//
// Counters are sharded so that concurrent trainers (one per simulated
// GPU) and flusher threads never contend on a cache line; Snapshot sums
// the shards. Every histogram (gate stall, flush latency, step wall time,
// serving latency) uses one fixed bucket layout, so snapshots are
// directly comparable.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// ----------------------------------------------------------------------
// Primitives

// cacheLine keeps adjacent counter shards on distinct cache lines.
const cacheLine = 64

type shard struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing metric sharded across concurrent
// writers (trainers, flusher threads). The zero Counter (no shards) drops
// every Add — sub-observers are only built through New, which sizes them.
type Counter struct {
	shards []shard
}

func newCounter(n int) Counter {
	if n < 1 {
		n = 1
	}
	return Counter{shards: make([]shard, n)}
}

// Add increments the counter by n on the writer's shard. Any shard value
// is accepted; it is reduced modulo the shard count.
func (c *Counter) Add(writer int, n int64) {
	if len(c.shards) == 0 {
		return
	}
	if writer < 0 {
		writer = -writer
	}
	c.shards[writer%len(c.shards)].v.Add(n)
}

// Total sums the shards.
func (c *Counter) Total() int64 {
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// ----------------------------------------------------------------------
// Histograms

// Every histogram shares one fixed log-linear layout. Values below
// subBuckets get one bucket each; above that, each power of two is split
// into subBuckets equal sub-buckets, so a bucket is at most 1/subBuckets
// as wide as its lower edge. Bucket upper edges therefore over-read a
// value by less than 1/16 (6.25%) at any scale. Values from 0 to
// 2^maxExp−1 ns (about 68.7 s) have a finite bucket; larger ones land in
// the overflow bucket.
const (
	subBits     = 4
	subBuckets  = 1 << subBits
	maxExp      = 36
	histBuckets = (maxExp - subBits + 1) * subBuckets // finite buckets
)

// bucketOf maps a value to its bucket index in O(1): the exponent picks
// the power-of-two group, the next subBits bits below the leading one
// pick the sub-bucket. Index histBuckets is the overflow bucket.
func bucketOf(v int64) int {
	if v < subBuckets {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 1
	if e >= maxExp {
		return histBuckets
	}
	return (e-subBits+1)<<subBits | int(v>>(e-subBits))&(subBuckets-1)
}

// bucketLe returns the inclusive upper bound of finite bucket i.
func bucketLe(i int) int64 {
	g, sub := i>>subBits, int64(i&(subBuckets-1))
	if g == 0 {
		return sub
	}
	shift := g - 1 // the group's width, as a power of two
	return (subBuckets+sub+1)<<shift - 1
}

// Histogram counts observations into the shared log-linear layout.
// Buckets and sums are atomics, so concurrent Observe and Snapshot are
// safe; the zero Histogram is ready to use.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64 // the last is the overflow bucket
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value (nanoseconds for the duration histograms).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistBucket is one bucket of a histogram snapshot. Le is the inclusive
// upper bound; the overflow bucket carries Le == math.MaxInt64.
type HistBucket struct {
	Le    time.Duration `json:"le"`
	Count int64         `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   int64         `json:"count"`
	Sum     time.Duration `json:"sum"`
	Buckets []HistBucket  `json:"buckets,omitempty"`
}

// Mean returns Sum/Count, or 0 before any observation.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-th
// quantile (0 < q ≤ 1): an over-estimate by less than 6.25% of the true
// value (see the layout above). Returns 0 before any observation. An
// observation in the overflow bucket reports the largest finite bound
// doubled — the layout has no upper edge to name.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	maxFinite := time.Duration(0)
	for _, b := range s.Buckets {
		cum += b.Count
		if b.Le < time.Duration(int64(^uint64(0)>>1)) && b.Le > maxFinite {
			maxFinite = b.Le
		}
		if cum >= rank {
			if b.Le == time.Duration(int64(^uint64(0)>>1)) {
				return 2 * maxFinite
			}
			return b.Le
		}
	}
	return maxFinite
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: time.Duration(h.sum.Load())}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := time.Duration(int64(^uint64(0) >> 1)) // overflow bucket
		if i < histBuckets {
			le = time.Duration(bucketLe(i))
		}
		s.Buckets = append(s.Buckets, HistBucket{Le: le, Count: n})
	}
	return s
}

// ----------------------------------------------------------------------
// Sub-observers (the instrumentation surfaces handed to each package)

// GateObs observes the synchronous-consistency gate from the trainer side.
type GateObs struct {
	passes, blocks Counter
	stall          Histogram
	tr             *Tracer
}

// Wait records one completed gate wait: stalled is the time the trainer
// spent blocked (0 when the gate was already open).
func (g *GateObs) Wait(gpu int, step int64, stalled time.Duration) {
	if g == nil {
		return
	}
	g.passes.Add(gpu, 1)
	if stalled > 0 {
		g.blocks.Add(gpu, 1)
		g.stall.Observe(int64(stalled))
		g.tr.Emit(EvGateBlock, gpu, step, 0, int64(stalled))
	}
	g.tr.Emit(EvGatePass, gpu, step, 0, int64(stalled))
}

// FlushObs observes the P²F write path: updates staged by trainers
// (enqueue side, sharded per GPU) and the latency of each g-entry's
// landing in host memory.
type FlushObs struct {
	enqueued Counter // individual updates committed by trainers
	latency  Histogram
	tr       *Tracer
}

// Enqueued records one trainer's CommitStep of n updates.
func (f *FlushObs) Enqueued(gpu int, step int64, n int) {
	if f == nil {
		return
	}
	f.enqueued.Add(gpu, int64(n))
	f.tr.Emit(EvFlushEnqueue, gpu, step, 0, int64(n))
}

// Dequeued records a flusher claiming a g-entry holding n updates.
func (f *FlushObs) Dequeued(flusher int, key uint64, n int) {
	if f == nil {
		return
	}
	f.tr.Emit(EvFlushDequeue, flusher, -1, key, int64(n))
}

// Applied records one g-entry's write set landing in host memory in
// `took` (flusher is -1 for a landing outside the flusher pool).
func (f *FlushObs) Applied(flusher int, key uint64, took time.Duration) {
	if f == nil {
		return
	}
	f.latency.Observe(int64(took))
	f.tr.Emit(EvFlushApply, flusher, -1, key, int64(took))
}

// PQObs counts priority-queue operations. The callers (commit paths,
// flusher threads) carry no stable worker identity, so counters shard by
// key instead — same contention-avoidance, no plumbing.
type PQObs struct {
	enqueues, dequeues, adjusts, stalePops, rescans Counter
}

// Enqueue records one queue insert.
func (p *PQObs) Enqueue(key uint64) {
	if p == nil {
		return
	}
	p.enqueues.Add(int(key), 1)
}

// Dequeue records one successful claim.
func (p *PQObs) Dequeue(key uint64) {
	if p == nil {
		return
	}
	p.dequeues.Add(int(key), 1)
}

// Adjust records one priority move.
func (p *PQObs) Adjust(key uint64) {
	if p == nil {
		return
	}
	p.adjusts.Add(int(key), 1)
}

// StalePop records a residue node culled during dequeue validation.
func (p *PQObs) StalePop(key uint64) {
	if p == nil {
		return
	}
	p.stalePops.Add(int(key), 1)
}

// Rescan records one run of the two-level queue's self-healing fallback:
// a check of every ring slot for an entry hidden below the scan range.
func (p *PQObs) Rescan() {
	if p == nil {
		return
	}
	p.rescans.Add(0, 1)
}

// FaultObs traces the fault-injection and recovery machinery: faults
// fired by the injector, flusher respawns, and the watchdog's degradation
// to write-through. The injector and the P²F controller count them.
type FaultObs struct {
	tr *Tracer
}

// Injected records one scheduled fault firing: src is the target flusher
// slot or GPU (-1 for host-write failures), at the trigger ordinal (-1
// for host-write failures), kind the fault kind code.
func (f *FaultObs) Injected(src int, at int64, kind int64) {
	if f == nil {
		return
	}
	f.tr.Emit(EvFaultInject, src, at, 0, kind)
}

// Respawned records the supervisor replacing a dead or stalled flusher;
// total is the pool-wide respawn count including this one.
func (f *FaultObs) Respawned(slot int, total int64) {
	if f == nil {
		return
	}
	f.tr.Emit(EvFlusherRespawn, slot, -1, 0, total)
}

// Degraded records the gate watchdog switching the engine to
// write-through at committed watermark step.
func (f *FaultObs) Degraded(step int64) {
	if f == nil {
		return
	}
	f.tr.Emit(EvDegrade, -1, step, 0, 0)
}

// StepObs observes each trainer's step wall time.
type StepObs struct {
	wall Histogram
	tr   *Tracer
}

// WorkerStep records one trainer finishing its shard of a step.
func (s *StepObs) WorkerStep(gpu int, step int64, took time.Duration) {
	if s == nil {
		return
	}
	s.wall.Observe(int64(took))
	s.tr.Emit(EvStepDone, gpu, step, 0, int64(took))
}

// ----------------------------------------------------------------------
// Observer

// Options sizes an Observer.
type Options struct {
	// Shards is the counter shard count — use max(trainers, flusher
	// threads) (default 8).
	Shards int
	// TraceCapacity is the event ring size, rounded up to a power of two
	// (default 65536; < 0 disables tracing entirely, keeping counters).
	TraceCapacity int
}

// Observer bundles the metric surfaces for one job. A nil *Observer (and
// every sub-observer it would hand out) is a valid no-op sink — the
// runtime's default.
type Observer struct {
	start  time.Time
	gate   GateObs
	flush  FlushObs
	pq     PQObs
	step   StepObs
	fault  FaultObs
	tracer *Tracer
}

// New builds an Observer.
func New(opt Options) *Observer {
	n := opt.Shards
	if n <= 0 {
		n = 8
	}
	o := &Observer{start: time.Now()}
	if opt.TraceCapacity >= 0 {
		o.tracer = NewTracer(opt.TraceCapacity)
	}
	o.gate = GateObs{passes: newCounter(n), blocks: newCounter(n), tr: o.tracer}
	o.flush = FlushObs{enqueued: newCounter(n), tr: o.tracer}
	o.pq = PQObs{
		enqueues: newCounter(n), dequeues: newCounter(n),
		adjusts: newCounter(n), stalePops: newCounter(n), rescans: newCounter(n),
	}
	o.step = StepObs{tr: o.tracer}
	o.fault = FaultObs{tr: o.tracer}
	return o
}

// GateSink returns the gate instrumentation surface (nil for a nil
// Observer — the no-op default every package accepts).
func (o *Observer) GateSink() *GateObs {
	if o == nil {
		return nil
	}
	return &o.gate
}

// FlushSink returns the flush instrumentation surface.
func (o *Observer) FlushSink() *FlushObs {
	if o == nil {
		return nil
	}
	return &o.flush
}

// PQSink returns the priority-queue instrumentation surface.
func (o *Observer) PQSink() *PQObs {
	if o == nil {
		return nil
	}
	return &o.pq
}

// StepSink returns the step instrumentation surface.
func (o *Observer) StepSink() *StepObs {
	if o == nil {
		return nil
	}
	return &o.step
}

// FaultSink returns the fault/recovery instrumentation surface.
func (o *Observer) FaultSink() *FaultObs {
	if o == nil {
		return nil
	}
	return &o.fault
}

// TraceSink returns the event tracer (nil when tracing is disabled).
func (o *Observer) TraceSink() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// ----------------------------------------------------------------------
// Snapshot

// Snapshot is a point-in-time copy of a training job's metrics, safe to
// take while the job runs. A job without an Observer reports the zero
// Snapshot, apart from the live queue depths. Each field has one owner,
// named below; the fields this package does not own are filled by the
// runtime's Job.Snapshot, from the same reads that fill its Result.
type Snapshot struct {
	// Uptime is the time since the observer was created.
	Uptime time.Duration `json:"uptimeNanos"`

	// Cache traffic, summed across GPUs — owned by each GPU's cache
	// directory (cache.Stats; Result.CacheStats). CacheLookups ==
	// CacheHits + CacheMisses; stale hits are a subset of misses.
	CacheLookups   int64 `json:"cacheLookups"`
	CacheHits      int64 `json:"cacheHits"`
	CacheMisses    int64 `json:"cacheMisses"`
	CacheStaleHits int64 `json:"cacheStaleHits"`
	CacheInserts   int64 `json:"cacheInserts"`
	CacheEvictions int64 `json:"cacheEvictions"`

	// Lookahead prefetch, also owned by the cache directories: fills
	// made by the prefetcher and their fate. CachePrefetchHits counts
	// demand lookups served from prefetched rows (a subset of
	// CacheHits); Late went stale before use, Wasted were evicted before
	// use.
	CachePrefetchFills  int64 `json:"cachePrefetchFills"`
	CachePrefetchHits   int64 `json:"cachePrefetchHits"`
	CachePrefetchLate   int64 `json:"cachePrefetchLate"`
	CachePrefetchWasted int64 `json:"cachePrefetchWasted"`

	// Consistency gate: every gate wait is a pass; blocks are the waits
	// that actually stalled (this package's GateObs). GateStallTime is
	// the P²F controller's stall total (Result.StallTime).
	GatePasses    int64         `json:"gatePasses"`
	GateBlocks    int64         `json:"gateBlocks"`
	GateStallTime time.Duration `json:"gateStallNanos"`
	GateStall     HistSnapshot  `json:"gateStall"`

	// P²F write path. FlushEnqueued is this package's count of updates
	// trainers committed. FlushApplied (Result.Flushed) and the entry
	// counts (DeferredEntries is Result.Deferred) are the controller's:
	// every landing counts, from the flusher pool, a serving FlushKey or a
	// degraded write-through commit alike. FlushApplied ≤ FlushEnqueued
	// always; they are equal once the epilogue has drained, on served jobs
	// too. FlushLatency observes every landing, so its Count equals
	// FlushedEntries.
	FlushEnqueued   int64        `json:"flushEnqueued"`
	FlushApplied    int64        `json:"flushApplied"`
	FlushedEntries  int64        `json:"flushedEntries"`
	DeferredEntries int64        `json:"deferredEntries"`
	UrgentEntries   int64        `json:"urgentEntries"`
	FlushLatency    HistSnapshot `json:"flushLatency"`

	// Live queue depths, read from the controller at snapshot time.
	FlushBacklog     int64 `json:"flushBacklog"`
	SampleQueueDepth int64 `json:"sampleQueueDepth"`

	// Priority-queue operation counts (this package's PQObs).
	PQEnqueues  int64 `json:"pqEnqueues"`
	PQDequeues  int64 `json:"pqDequeues"`
	PQAdjusts   int64 `json:"pqAdjusts"`
	PQStalePops int64 `json:"pqStalePops"`
	// PQRescans counts runs of the two-level queue's self-healing
	// fallback; 0 unless an entry hid below the scan range.
	PQRescans int64 `json:"pqRescans"`

	// Steps. StepsCompleted is the job's completed-step count
	// (Result.Steps); StepWall is this package's per-trainer histogram.
	StepsCompleted int64        `json:"stepsCompleted"`
	StepWall       HistSnapshot `json:"stepWall"`

	// Fault injection and recovery (Result.Recovery), zero throughout on
	// fault-free runs. FaultsInjected is the injector's count,
	// HostWriteRetries the host slab's; the rest are the P²F controller's.
	// Degradations is 0 or 1: the switch to write-through is one-way.
	FaultsInjected       int64 `json:"faultsInjected"`
	FlusherRespawns      int64 `json:"flusherRespawns"`
	RedistributedEntries int64 `json:"redistributedEntries"`
	HostWriteRetries     int64 `json:"hostWriteRetries"`
	Degradations         int64 `json:"degradations"`

	// Tiered-slab traffic, owned by the host slab (Host.TierStats). Zero
	// throughout when the cold tier is off.
	TierPromotions   int64 `json:"tierPromotions"`
	TierDemotions    int64 `json:"tierDemotions"`
	TierDeclined     int64 `json:"tierDeclined"`
	TierColdWrites   int64 `json:"tierColdWrites"`
	TierDequantReads int64 `json:"tierDequantReads"`

	// Tracer accounting: events ever emitted, and how many the ring has
	// overwritten.
	TraceEvents  int64 `json:"traceEvents"`
	TraceDropped int64 `json:"traceDropped"`
}

// Snapshot fills the fields this package owns. Safe to call concurrently
// with the job; a nil Observer returns the zero Snapshot.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Uptime: time.Since(o.start),

		GatePasses: o.gate.passes.Total(),
		GateBlocks: o.gate.blocks.Total(),
		GateStall:  o.gate.stall.snapshot(),

		FlushEnqueued: o.flush.enqueued.Total(),
		FlushLatency:  o.flush.latency.snapshot(),

		PQEnqueues:  o.pq.enqueues.Total(),
		PQDequeues:  o.pq.dequeues.Total(),
		PQAdjusts:   o.pq.adjusts.Total(),
		PQStalePops: o.pq.stalePops.Total(),
		PQRescans:   o.pq.rescans.Total(),

		StepWall: o.step.wall.snapshot(),
	}
	if o.tracer != nil {
		s.TraceEvents, s.TraceDropped = o.tracer.Stats()
	}
	return s
}
