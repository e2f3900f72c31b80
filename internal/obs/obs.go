// Package obs is Frugal's runtime observability layer: an
// allocation-conscious metrics registry (sharded counters, gauges, fixed-
// bucket histograms) plus a typed step-event tracer (ring buffer with a
// JSONL dump) that together expose where an iteration's time goes — the
// Fig 3c / Fig 12 breakdown of the paper — while a job is running.
//
// Everything is nil-safe: every instrumentation hook is a method on a
// pointer that may be nil, and a nil receiver is a no-op costing one
// predictable branch. The hot paths (cache probes, priority-queue
// operations, gate waits) are instrumented unconditionally in their
// packages and pay nothing when observability is disabled — the default.
//
// Counters are sharded so that concurrent trainers (one per simulated
// GPU) and flusher threads never contend on a cache line; Snapshot sums
// the shards. Histograms use fixed bucket layouts shared by the gate-
// stall, flush-latency and step-wall-time metrics so snapshots are
// directly comparable.
package obs

import (
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

// Gauge is a last-value metric (queue depths, watermarks).
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// ----------------------------------------------------------------------
// Histograms

// DurationBuckets is the shared bucket layout for the time histograms
// (gate stall, flush latency, per-step wall time): a 1-2-5 ladder from
// 1µs to 10s. Values are inclusive upper bounds in nanoseconds.
var DurationBuckets = []int64{
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000, 200_000_000, 500_000_000,
	1_000_000_000, 2_000_000_000, 5_000_000_000,
	10_000_000_000,
}

// Histogram counts observations into fixed buckets. Buckets and sums are
// atomics, so concurrent Observe and Snapshot are safe.
type Histogram struct {
	bounds  []int64        // inclusive upper bounds, ascending
	buckets []atomic.Int64 // len(bounds)+1; the last is the overflow bucket
	count   atomic.Int64
	sum     atomic.Int64
}

func newHistogram(bounds []int64) Histogram {
	return Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value (nanoseconds for the duration layouts).
func (h *Histogram) Observe(v int64) {
	if h == nil || len(h.buckets) == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
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
// quantile (0 < q ≤ 1), a conservative (over-)estimate with the usual
// fixed-bucket resolution. Returns 0 before any observation. An
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
		if i < len(h.bounds) {
			le = time.Duration(h.bounds[i])
		}
		s.Buckets = append(s.Buckets, HistBucket{Le: le, Count: n})
	}
	return s
}

// ----------------------------------------------------------------------
// Sub-observers (the instrumentation surfaces handed to each package)

// TierObs instruments the tiered slab: promotion/demotion traffic and
// the cold tier's quantized read/write paths. Callers shard by key (the
// events come from flusher threads and serve readers, not a fixed GPU).
type TierObs struct {
	promotions, demotions, declined Counter
	coldWrites, dequantReads        Counter
}

// TierPromotion records a cold→hot move.
func (t *TierObs) TierPromotion(key uint64) {
	if t == nil {
		return
	}
	t.promotions.Add(int(key), 1)
}

// TierDemotion records a hot→cold move (the row was requantized).
func (t *TierObs) TierDemotion(key uint64) {
	if t == nil {
		return
	}
	t.demotions.Add(int(key), 1)
}

// TierDeclined records a promotion dropped because no strictly colder
// victim was found in the sweep window.
func (t *TierObs) TierDeclined(key uint64) {
	if t == nil {
		return
	}
	t.declined.Add(int(key), 1)
}

// ColdWrite records a cold-row read-modify-requantize apply.
func (t *TierObs) ColdWrite(key uint64) {
	if t == nil {
		return
	}
	t.coldWrites.Add(int(key), 1)
}

// DequantRead records a row read served by dequantization.
func (t *TierObs) DequantRead(key uint64) {
	if t == nil {
		return
	}
	t.dequantReads.Add(int(key), 1)
}

// CacheObs counts per-GPU embedding-cache traffic. Hit/Miss/Insert are
// called on the cache probe path, so they must stay branch-cheap.
type CacheObs struct {
	lookups, hits, misses, stale, inserts, evictions Counter
	// Lookahead-prefetch fate counters (see cache.Stats for semantics).
	prefFills, prefHits, prefLate, prefWasted Counter
	tr                                        *Tracer
}

// Hit records a fresh cache hit.
func (c *CacheObs) Hit(gpu int, key uint64) {
	if c == nil {
		return
	}
	c.lookups.Add(gpu, 1)
	c.hits.Add(gpu, 1)
	c.tr.Emit(EvCacheHit, gpu, -1, key, 0)
}

// Miss records a cache miss; stale marks a present-but-outdated row that
// was invalidated (stale misses are a subset of misses).
func (c *CacheObs) Miss(gpu int, key uint64, stale bool) {
	if c == nil {
		return
	}
	c.lookups.Add(gpu, 1)
	c.misses.Add(gpu, 1)
	if stale {
		c.stale.Add(gpu, 1)
	}
	c.tr.Emit(EvCacheMiss, gpu, -1, key, 0)
}

// Insert records a cache fill and the eviction it may have caused.
func (c *CacheObs) Insert(gpu int, key, evicted uint64, wasEviction bool) {
	if c == nil {
		return
	}
	c.inserts.Add(gpu, 1)
	if wasEviction {
		c.evictions.Add(gpu, 1)
		c.tr.Emit(EvCacheEvict, gpu, -1, evicted, 0)
	}
}

// PrefetchFill records one row filled (or refilled) by the lookahead
// prefetcher.
func (c *CacheObs) PrefetchFill(gpu int) {
	if c == nil {
		return
	}
	c.prefFills.Add(gpu, 1)
}

// PrefetchHit records a demand lookup served from a prefetched row.
func (c *CacheObs) PrefetchHit(gpu int) {
	if c == nil {
		return
	}
	c.prefHits.Add(gpu, 1)
}

// PrefetchLate records a prefetched row invalidated or refilled before any
// demand use (the fill lost a race with a flush).
func (c *CacheObs) PrefetchLate(gpu int) {
	if c == nil {
		return
	}
	c.prefLate.Add(gpu, 1)
}

// PrefetchWasted records a prefetched row evicted before any demand use.
func (c *CacheObs) PrefetchWasted(gpu int) {
	if c == nil {
		return
	}
	c.prefWasted.Add(gpu, 1)
}

// GateObs observes the synchronous-consistency gate from the trainer side.
type GateObs struct {
	passes, blocks, stallNanos Counter
	stall                      Histogram
	tr                         *Tracer
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
		g.stallNanos.Add(gpu, int64(stalled))
		g.stall.Observe(int64(stalled))
		g.tr.Emit(EvGateBlock, gpu, step, 0, int64(stalled))
	}
	g.tr.Emit(EvGatePass, gpu, step, 0, int64(stalled))
}

// FlushObs observes the P²F write path: updates staged by trainers
// (enqueue side, sharded per GPU) and g-entries drained by the flusher
// pool (apply side, sharded per flusher thread).
type FlushObs struct {
	enqueued        Counter // individual updates committed by trainers
	applied         Counter // individual updates applied through the sink
	entries         Counter // g-entries flushed
	deferredEntries Counter // flushed from the ∞ slot (off the critical path)
	urgentEntries   Counter // flushed with a finite priority
	latency         Histogram
	sampleDepth     Gauge
	tr              *Tracer
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

// Applied records a completed flush of one g-entry: n updates written to
// host memory in `took`, from the deferred (∞) or urgent (finite) slot.
func (f *FlushObs) Applied(flusher int, key uint64, n int, deferred bool, took time.Duration) {
	if f == nil {
		return
	}
	f.applied.Add(flusher, int64(n))
	f.entries.Add(flusher, 1)
	if deferred {
		f.deferredEntries.Add(flusher, 1)
	} else {
		f.urgentEntries.Add(flusher, 1)
	}
	f.latency.Observe(int64(took))
	f.tr.Emit(EvFlushApply, flusher, -1, key, int64(took))
}

// SampleDepth records the sample (lookahead) queue depth after a prefetch.
func (f *FlushObs) SampleDepth(depth int) {
	if f == nil {
		return
	}
	f.sampleDepth.Set(int64(depth))
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

// FaultObs observes the fault-injection and recovery machinery: faults
// fired by the injector, flusher respawns and batch redistributions by
// the self-healing pool, transient host-write retries, and watchdog
// degradations to write-through.
type FaultObs struct {
	injected      Counter
	respawns      Counter
	redistributed Counter
	writeRetries  Counter
	degradations  Counter
	tr            *Tracer
}

// Injected records one scheduled fault firing: src is the target flusher
// slot or GPU (-1 for host-write failures), at the trigger ordinal, kind
// the fault kind code.
func (f *FaultObs) Injected(src int, at int64, kind int64) {
	if f == nil {
		return
	}
	f.injected.Add(src, 1)
	f.tr.Emit(EvFaultInject, src, at, 0, kind)
}

// Respawned records the supervisor replacing a dead or stalled flusher;
// total is the pool-wide respawn count including this one.
func (f *FaultObs) Respawned(slot int, total int64) {
	if f == nil {
		return
	}
	f.respawns.Add(slot, 1)
	f.tr.Emit(EvFlusherRespawn, slot, -1, 0, total)
}

// Redistributed records a dying flusher re-enqueueing the n g-entries of
// its in-flight dequeue batch.
func (f *FaultObs) Redistributed(slot int, n int) {
	if f == nil || n == 0 {
		return
	}
	f.redistributed.Add(slot, int64(n))
}

// WriteRetry records one retried host-memory write attempt.
func (f *FaultObs) WriteRetry(writer int) {
	if f == nil {
		return
	}
	f.writeRetries.Add(writer, 1)
}

// Degraded records the gate watchdog switching the engine to
// write-through at committed watermark step.
func (f *FaultObs) Degraded(step int64) {
	if f == nil {
		return
	}
	f.degradations.Add(0, 1)
	f.tr.Emit(EvDegrade, -1, step, 0, 0)
}

// StepObs observes training-step completion.
type StepObs struct {
	completed Counter // global steps fully committed by all trainers
	wall      Histogram
	tr        *Tracer
}

// WorkerStep records one trainer finishing its shard of a step.
func (s *StepObs) WorkerStep(gpu int, step int64, took time.Duration) {
	if s == nil {
		return
	}
	s.wall.Observe(int64(took))
	s.tr.Emit(EvStepDone, gpu, step, 0, int64(took))
}

// Completed records a globally completed step (all trainers committed).
func (s *StepObs) Completed() {
	if s == nil {
		return
	}
	s.completed.Add(0, 1)
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
	cache  CacheObs
	gate   GateObs
	flush  FlushObs
	pq     PQObs
	step   StepObs
	fault  FaultObs
	tier   TierObs
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
	o.cache = CacheObs{
		lookups: newCounter(n), hits: newCounter(n), misses: newCounter(n),
		stale: newCounter(n), inserts: newCounter(n), evictions: newCounter(n),
		prefFills: newCounter(n), prefHits: newCounter(n),
		prefLate: newCounter(n), prefWasted: newCounter(n),
		tr: o.tracer,
	}
	o.gate = GateObs{
		passes: newCounter(n), blocks: newCounter(n), stallNanos: newCounter(n),
		stall: newHistogram(DurationBuckets), tr: o.tracer,
	}
	o.flush = FlushObs{
		enqueued: newCounter(n), applied: newCounter(n), entries: newCounter(n),
		deferredEntries: newCounter(n), urgentEntries: newCounter(n),
		latency: newHistogram(DurationBuckets), tr: o.tracer,
	}
	o.pq = PQObs{
		enqueues: newCounter(n), dequeues: newCounter(n),
		adjusts: newCounter(n), stalePops: newCounter(n), rescans: newCounter(n),
	}
	o.step = StepObs{completed: newCounter(n), wall: newHistogram(DurationBuckets), tr: o.tracer}
	o.fault = FaultObs{
		injected: newCounter(n), respawns: newCounter(n), redistributed: newCounter(n),
		writeRetries: newCounter(n), degradations: newCounter(n), tr: o.tracer,
	}
	o.tier = TierObs{
		promotions: newCounter(n), demotions: newCounter(n), declined: newCounter(n),
		coldWrites: newCounter(n), dequantReads: newCounter(n),
	}
	return o
}

// CacheSink returns the cache instrumentation surface (nil for a nil
// Observer — the no-op default every package accepts).
func (o *Observer) CacheSink() *CacheObs {
	if o == nil {
		return nil
	}
	return &o.cache
}

// GateSink returns the gate instrumentation surface.
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

// TierSink returns the tiered-slab instrumentation surface.
func (o *Observer) TierSink() *TierObs {
	if o == nil {
		return nil
	}
	return &o.tier
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

// Snapshot is a point-in-time copy of every metric, safe to take while
// the job runs. The zero Snapshot is what a nil Observer reports.
type Snapshot struct {
	// Uptime is the time since the observer was created.
	Uptime time.Duration `json:"uptimeNanos"`

	// Cache traffic, summed across GPUs. CacheLookups ==
	// CacheHits + CacheMisses; stale hits are a subset of misses.
	CacheLookups   int64 `json:"cacheLookups"`
	CacheHits      int64 `json:"cacheHits"`
	CacheMisses    int64 `json:"cacheMisses"`
	CacheStaleHits int64 `json:"cacheStaleHits"`
	CacheInserts   int64 `json:"cacheInserts"`
	CacheEvictions int64 `json:"cacheEvictions"`

	// Lookahead prefetch: fills issued by the prefetcher and their fate.
	// CachePrefetchHits counts demand lookups served from prefetched rows
	// (a subset of CacheHits); Late went stale before use, Wasted were
	// evicted before use.
	CachePrefetchFills  int64 `json:"cachePrefetchFills"`
	CachePrefetchHits   int64 `json:"cachePrefetchHits"`
	CachePrefetchLate   int64 `json:"cachePrefetchLate"`
	CachePrefetchWasted int64 `json:"cachePrefetchWasted"`

	// Consistency gate: every gate wait is a pass; blocks are the waits
	// that actually stalled, accumulating GateStallTime.
	GatePasses    int64         `json:"gatePasses"`
	GateBlocks    int64         `json:"gateBlocks"`
	GateStallTime time.Duration `json:"gateStallNanos"`
	GateStall     HistSnapshot  `json:"gateStall"`

	// P²F write path. FlushApplied ≤ FlushEnqueued always; they are equal
	// once the epilogue has drained.
	FlushEnqueued   int64        `json:"flushEnqueued"`
	FlushApplied    int64        `json:"flushApplied"`
	FlushedEntries  int64        `json:"flushedEntries"`
	DeferredEntries int64        `json:"deferredEntries"`
	UrgentEntries   int64        `json:"urgentEntries"`
	FlushLatency    HistSnapshot `json:"flushLatency"`

	// Live queue depths (filled by the runtime at snapshot time).
	FlushBacklog     int64 `json:"flushBacklog"`
	SampleQueueDepth int64 `json:"sampleQueueDepth"`

	// Priority-queue operation counts.
	PQEnqueues  int64 `json:"pqEnqueues"`
	PQDequeues  int64 `json:"pqDequeues"`
	PQAdjusts   int64 `json:"pqAdjusts"`
	PQStalePops int64 `json:"pqStalePops"`
	// PQRescans counts runs of the two-level queue's self-healing
	// fallback; 0 unless an entry hid below the scan range.
	PQRescans int64 `json:"pqRescans"`

	// Steps.
	StepsCompleted int64        `json:"stepsCompleted"`
	StepWall       HistSnapshot `json:"stepWall"`

	// Fault injection and recovery. Zero throughout on fault-free runs.
	FaultsInjected       int64 `json:"faultsInjected"`
	FlusherRespawns      int64 `json:"flusherRespawns"`
	RedistributedEntries int64 `json:"redistributedEntries"`
	HostWriteRetries     int64 `json:"hostWriteRetries"`
	Degradations         int64 `json:"degradations"`

	// Tiered-slab traffic. Zero throughout when the cold tier is off.
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

// Snapshot sums every counter. Safe to call concurrently with the job; a
// nil Observer returns the zero Snapshot.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Uptime:         time.Since(o.start),
		CacheLookups:   o.cache.lookups.Total(),
		CacheHits:      o.cache.hits.Total(),
		CacheMisses:    o.cache.misses.Total(),
		CacheStaleHits: o.cache.stale.Total(),
		CacheInserts:   o.cache.inserts.Total(),
		CacheEvictions: o.cache.evictions.Total(),

		CachePrefetchFills:  o.cache.prefFills.Total(),
		CachePrefetchHits:   o.cache.prefHits.Total(),
		CachePrefetchLate:   o.cache.prefLate.Total(),
		CachePrefetchWasted: o.cache.prefWasted.Total(),

		GatePasses:    o.gate.passes.Total(),
		GateBlocks:    o.gate.blocks.Total(),
		GateStallTime: time.Duration(o.gate.stallNanos.Total()),
		GateStall:     o.gate.stall.snapshot(),

		FlushEnqueued:    o.flush.enqueued.Total(),
		FlushApplied:     o.flush.applied.Total(),
		FlushedEntries:   o.flush.entries.Total(),
		DeferredEntries:  o.flush.deferredEntries.Total(),
		UrgentEntries:    o.flush.urgentEntries.Total(),
		FlushLatency:     o.flush.latency.snapshot(),
		SampleQueueDepth: o.flush.sampleDepth.Value(),

		PQEnqueues:  o.pq.enqueues.Total(),
		PQDequeues:  o.pq.dequeues.Total(),
		PQAdjusts:   o.pq.adjusts.Total(),
		PQStalePops: o.pq.stalePops.Total(),
		PQRescans:   o.pq.rescans.Total(),

		StepsCompleted: o.step.completed.Total(),
		StepWall:       o.step.wall.snapshot(),

		FaultsInjected:       o.fault.injected.Total(),
		FlusherRespawns:      o.fault.respawns.Total(),
		RedistributedEntries: o.fault.redistributed.Total(),
		HostWriteRetries:     o.fault.writeRetries.Total(),
		Degradations:         o.fault.degradations.Total(),

		TierPromotions:   o.tier.promotions.Total(),
		TierDemotions:    o.tier.demotions.Total(),
		TierDeclined:     o.tier.declined.Total(),
		TierColdWrites:   o.tier.coldWrites.Total(),
		TierDequantReads: o.tier.dequantReads.Total(),
	}
	if o.tracer != nil {
		s.TraceEvents, s.TraceDropped = o.tracer.Stats()
	}
	return s
}
