package sim

import (
	"fmt"
	"math"

	"frugal/internal/cache"
	"frugal/internal/comm"
	"frugal/internal/hw"
	"frugal/internal/pq"
	"frugal/internal/stats"
)

// SystemKind names a training system of the evaluation.
type SystemKind string

// The competitor systems of §4.1.
const (
	SysPyTorch    SystemKind = "PyTorch"     // no cache, CPU-involved host access
	SysHugeCTR    SystemKind = "HugeCTR"     // sharded multi-GPU cache + all_to_all
	SysFrugalSync SystemKind = "Frugal-Sync" // Frugal data path, write-through flushing
	SysFrugal     SystemKind = "Frugal"      // priority-based proactive flushing
	SysUVM        SystemKind = "PyTorch-UVM" // unified-virtual-memory baseline
	// SysUnified is a WholeGraph/torch-quiver-style unified-address system
	// (§5: "unified address-based" related work): GPUs load/store peer
	// caches directly. It requires full UVA (datacenter parts only) and
	// serves as the strongest existing datacenter baseline in Exp #9.
	SysUnified SystemKind = "Unified-Address"
)

// KGLabel translates a system kind to its knowledge-graph counterpart
// (DGL-KE is PyTorch-based, per §4.1).
func KGLabel(k SystemKind) string {
	switch k {
	case SysPyTorch:
		return "DGL-KE"
	case SysHugeCTR:
		return "DGL-KE-cached"
	default:
		return string(k)
	}
}

// Tuning holds the calibration constants of the software-side cost model
// (hardware constants live in hw.Params). Defaults reproduce the paper's
// ratios; experiments never change them except where noted.
type Tuning struct {
	// Fixed per-iteration framework overhead (optimizer step, kernel
	// launches, Python/host orchestration) per system family.
	PyTorchFixed float64
	HugeCTRFixed float64
	FrugalFixed  float64

	// HostRowCost is the full-framework per-row cost of the CPU-involved
	// no-cache path (lookup + pinned-host gather + optimizer scatter) on
	// top of raw byte movement.
	HostRowCost float64
	// CacheSoftwarePerKey is the CPU cost per key of the message-based
	// cache path (bucketing, request marshalling, reorder — Fig 2b ➊/➎).
	CacheSoftwarePerKey float64
	// DatacenterSWFactor scales the CPU-side cache software and miss path
	// down on P2P/UVA-capable datacenter parts (HugeCTR's GPU-direct
	// paths), per §2.4's analysis of where the commodity gap comes from.
	DatacenterSWFactor float64
	// GEntryOpTwoLevel is the per-key commit cost of the two-level PQ
	// (enqueue/adjustPriority, O(1)).
	GEntryOpTwoLevel float64
	// GEntryOpTreeHeapBase is multiplied by log₂(queue population) for the
	// TreeHeap baseline's per-key commit cost.
	GEntryOpTreeHeapBase float64
	// FlushRowCost is one flusher thread's cost to dequeue and apply one
	// update with the two-level PQ.
	FlushRowCost float64
	// TreeFlushRowBase is multiplied by log₂(population) for a TreeHeap
	// dequeue+apply; near-root contention serialises the pool, so thread
	// count barely helps (TreeHeapParallelism caps it).
	TreeFlushRowBase    float64
	TreeHeapParallelism float64
	// SyncFlushRowCost is the per-row cost of the write-through policy
	// (unbatched D2H + immediate DRAM read-modify-write on the critical
	// path).
	SyncFlushRowCost float64
	// AsyncCommFraction is the residual fraction of the update D2H
	// transfer that Frugal cannot hide from the critical path.
	AsyncCommFraction float64
	// FlushOverlap is the fraction of an iteration during which the
	// flusher pool overlaps foreground training.
	FlushOverlap float64
	// GateTailOverlap is the (small) fraction of an iteration between the
	// last commit and the next gate in which urgent entries can flush.
	GateTailOverlap float64
	// GateFixed is the fixed software cost of one gate synchronisation
	// (priority-index scans, condition-variable wakeups).
	GateFixed float64
	// CPUCores bounds useful flushing threads; beyond it they steal
	// compute from training (Exp #10's downslope).
	CPUCores              int
	CPUDiversionPerThread float64
	// DenseSyncBytes approximates the dense-parameter gradient exchange
	// per iteration when the model has a DNN part.
	DenseSyncBytes int64
	// UnifiedFixed is the per-iteration framework overhead of the
	// unified-address datacenter baseline; PeerRandomBWGBps its achievable
	// fine-grained P2P bandwidth.
	UnifiedFixed     float64
	PeerRandomBWGBps float64
}

// DefaultTuning returns the calibrated constants.
func DefaultTuning() Tuning {
	return Tuning{
		PyTorchFixed:          1.2e-3,
		HugeCTRFixed:          1.6e-3,
		FrugalFixed:           3.4e-3,
		HostRowCost:           2.4e-6,
		CacheSoftwarePerKey:   3.6e-6,
		GEntryOpTwoLevel:      0.35e-6,
		GEntryOpTreeHeapBase:  0.028e-6,
		FlushRowCost:          0.6e-6,
		TreeFlushRowBase:      1.2e-6,
		TreeHeapParallelism:   1.3,
		SyncFlushRowCost:      3.0e-6,
		AsyncCommFraction:     0.15,
		FlushOverlap:          0.55,
		GateTailOverlap:       0.012,
		GateFixed:             120e-6,
		CPUCores:              32,
		CPUDiversionPerThread: 0.035,
		DatacenterSWFactor:    1.0,
		DenseSyncBytes:        512 << 10,
		UnifiedFixed:          3.4e-3,
		PeerRandomBWGBps:      4.5,
	}
}

// System configures one simulated training system instance.
type System struct {
	Kind         SystemKind
	GPU          hw.GPUSpec
	NumGPUs      int
	CacheRatio   float64
	FlushThreads int
	Lookahead    int
	// TreeHeap swaps the two-level PQ for the Exp #4 baseline.
	TreeHeap bool
	// Tune overrides DefaultTuning when non-nil.
	Tune *Tuning
}

func (s *System) normalize() error {
	if s.NumGPUs <= 0 {
		return fmt.Errorf("sim: NumGPUs must be positive, got %d", s.NumGPUs)
	}
	if s.GPU.Name == "" {
		s.GPU = hw.RTX3090
	}
	switch s.Kind {
	case SysPyTorch, SysHugeCTR, SysFrugalSync, SysFrugal, SysUVM:
	case SysUnified:
		if !s.GPU.UVAToPeer {
			return fmt.Errorf("sim: %s requires UVA to peer GPUs (%s is a commodity part)", s.Kind, s.GPU.Name)
		}
	default:
		return fmt.Errorf("sim: unknown system %q", s.Kind)
	}
	if s.CacheRatio <= 0 {
		s.CacheRatio = 0.05
	}
	if s.FlushThreads <= 0 {
		s.FlushThreads = 8
	}
	if s.Lookahead <= 0 {
		s.Lookahead = 10
	}
	return nil
}

// StepCost is the virtual time of one training iteration.
type StepCost struct {
	stats.Breakdown
	// Stall is the time the foreground trainers spent blocked on
	// flushing (included in Breakdown.HostDRAM).
	Stall float64
}

// Summary aggregates a measured run.
type Summary struct {
	Iter       StepCost // mean per measured iteration
	Throughput float64  // samples per second
	HitRatio   float64
	// GEntryBatchTime is the mean time to complete one batch's g-entry
	// updates (Exp #4a; Frugal systems only).
	GEntryBatchTime float64
}

// Simulator drives one system over one workload in virtual time.
type Simulator struct {
	sys  System
	w    Workload
	tune Tuning
	topo *hw.Topology
	tr   *trace

	// future holds the upcoming batches: future[0] is the next step to
	// train; its length is lookahead+1 (the sample queue).
	future []batchInfo
	step   int64

	cache0   *cache.Meta       // representative GPU 0's cache directory
	versions map[uint64]uint64 // per-key global update counter
	pend     *pendingSet       // unflushed updates (Frugal)
	credit   float64           // background flush capacity carried over
}

// batchInfo precomputes the sharding of one global batch.
type batchInfo struct {
	keySet    map[uint64]struct{}
	shard0    []uint64 // GPU 0's sample keys + shared keys
	shard0Set map[uint64]struct{}
	// multi marks shard-0 keys that another GPU also updates this step
	// (shared negatives, or keys drawn by other GPUs' samples).
	multi map[uint64]bool
}

// NewSimulator validates the configuration and pre-fills the lookahead
// window.
func NewSimulator(sys System, w Workload) (*Simulator, error) {
	if err := sys.normalize(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	tune := DefaultTuning()
	if sys.Tune != nil {
		tune = *sys.Tune
	}
	topo, err := hw.NewTopology(sys.GPU, sys.NumGPUs, hw.DefaultParams())
	if err != nil {
		return nil, err
	}
	tr, err := newTrace(&w)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		sys: sys, w: w, tune: tune, topo: topo, tr: tr,
		versions: make(map[uint64]uint64),
		pend:     newPendingSet(),
	}
	if sys.Kind != SysPyTorch && sys.Kind != SysUVM {
		rows := int(float64(w.KeySpace) * sys.CacheRatio / float64(sys.NumGPUs))
		if rows < cache.Ways {
			rows = cache.Ways
		}
		s.cache0 = cache.MustNewMeta(rows)
	}
	for i := 0; i <= sys.Lookahead; i++ {
		s.pushBatch()
	}
	return s, nil
}

// pushBatch generates one future batch, precomputes its sharding, and —
// like the prefetch thread — promotes pending deferred updates that the
// new batch will read.
func (s *Simulator) pushBatch() {
	keys := s.tr.next()
	b := batchInfo{
		keySet:    make(map[uint64]struct{}, len(keys)),
		shard0Set: make(map[uint64]struct{}),
	}
	n := s.sys.NumGPUs
	kps := s.w.KeysPerSample
	samples := s.w.Batch
	globalCount := make(map[uint64]int, len(keys))
	shard0Count := make(map[uint64]int)
	for i := 0; i < samples; i++ {
		sample := keys[i*kps : (i+1)*kps]
		for _, k := range sample {
			globalCount[k]++
		}
		if i%n == 0 {
			b.shard0 = append(b.shard0, sample...)
			for _, k := range sample {
				shard0Count[k]++
			}
		}
	}
	// Shared keys (KG negatives) are read — and updated — by every GPU.
	shared := keys[samples*kps:]
	b.shard0 = append(b.shard0, shared...)
	sharedSet := make(map[uint64]struct{}, len(shared))
	for _, k := range shared {
		sharedSet[k] = struct{}{}
	}
	for _, k := range keys {
		b.keySet[k] = struct{}{}
	}
	b.multi = make(map[uint64]bool, len(b.shard0))
	for _, k := range b.shard0 {
		b.shard0Set[k] = struct{}{}
		_, isShared := sharedSet[k]
		b.multi[k] = isShared || globalCount[k] > shard0Count[k]
	}
	step := s.step + int64(len(s.future))
	if s.sys.Kind == SysFrugal {
		for k := range b.keySet {
			s.pend.adjust(k, step)
		}
	}
	s.future = append(s.future, b)
}

// nextOccurrence returns the first step in (s.step, s.step+L] at which key
// is read again, or pq.Inf — Equation (1)'s priority for a fresh update.
// It is evaluated at commit time of step s.step, when future[i] holds the
// batch of step s.step+1+i.
func (s *Simulator) nextOccurrence(key uint64) int64 {
	for i := 0; i < len(s.future); i++ {
		if _, ok := s.future[i].keySet[key]; ok {
			return s.step + 1 + int64(i)
		}
	}
	return pq.Inf
}

// flushRate returns the flusher pool's drain rate in rows/second.
func (s *Simulator) flushRate() float64 {
	if s.sys.TreeHeap {
		pop := float64(s.pend.len() + 2)
		perRow := s.tune.TreeFlushRowBase * math.Log2(pop)
		// Near-root contention: threads serialise almost completely.
		par := math.Min(float64(s.sys.FlushThreads), s.tune.TreeHeapParallelism)
		return par / perRow
	}
	rate := float64(s.sys.FlushThreads) / s.tune.FlushRowCost
	// DRAM random-access bound.
	dramRows := s.topo.P.HostMemGBps * 1e9 * 0.6 / float64(s.w.RowBytes()*2)
	return math.Min(rate, dramRows)
}

// gEntryOpCost returns the per-key commit-path cost (enqueue/adjust).
func (s *Simulator) gEntryOpCost() float64 {
	if s.sys.TreeHeap {
		pop := float64(s.pend.len() + 2)
		return s.tune.GEntryOpTreeHeapBase * math.Log2(pop)
	}
	return s.tune.GEntryOpTwoLevel
}

// Step simulates one training iteration and returns its virtual cost.
func (s *Simulator) Step() StepCost {
	b := s.future[0]
	s.future = s.future[1:]

	var cost StepCost
	switch s.sys.Kind {
	case SysPyTorch:
		cost = s.stepPyTorch(b)
	case SysUVM:
		cost = s.stepUVM(b)
	case SysHugeCTR:
		cost = s.stepHugeCTR(b)
	case SysFrugalSync:
		cost = s.stepFrugalLike(b, true)
	case SysFrugal:
		cost = s.stepFrugalLike(b, false)
	case SysUnified:
		cost = s.stepUnified(b)
	}

	// Version bump: every globally updated key advances (all systems keep
	// synchronous consistency, so updates land each step).
	for k := range b.keySet {
		s.versions[k]++
	}
	s.step++
	s.pushBatch()
	return cost
}

// uniqueCount deduplicates a key list.
func uniqueCount(keys []uint64) int {
	set := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		set[k] = struct{}{}
	}
	return len(set)
}

// denseComm prices the dense-gradient synchronisation of DNN-bearing
// models.
func (s *Simulator) denseComm() float64 {
	if s.w.DNNFlopsPerSample <= 0 || s.sys.NumGPUs == 1 {
		return 0
	}
	return s.topo.AllToAll(s.tune.DenseSyncBytes)
}

// otherCost prices the non-embedding work of one iteration.
func (s *Simulator) otherCost(fixed float64) float64 {
	perGPU := float64(s.w.Batch) / float64(s.sys.NumGPUs)
	t := fixed + s.w.CPUPerSample*perGPU
	if s.w.DNNFlopsPerSample > 0 {
		t += s.topo.Compute(s.w.DNNFlopsPerSample * perGPU)
	}
	// Exp #10: flushing threads beyond the core budget steal CPU from the
	// training processes.
	if s.sys.Kind == SysFrugal || s.sys.Kind == SysFrugalSync {
		over := s.sys.FlushThreads + s.sys.NumGPUs*2 - s.tune.CPUCores
		if over > 0 {
			t *= 1 + s.tune.CPUDiversionPerThread*float64(over)
		}
	}
	return t
}

// hostRowPath prices the CPU-involved no-cache path for `rows` rows. The
// per-row software cost is served by the host CPU, a resource shared by
// every GPU's gather/scatter requests: past ~4 concurrent GPUs the CPU
// side saturates (together with the root complex, the Exp #8 knee for
// no-cache systems).
func (s *Simulator) hostRowPath(rows int) float64 {
	raw := s.topo.CPUGather(rows, s.w.RowBytes(), s.sys.NumGPUs)
	contention := 1.0
	if f := float64(s.sys.NumGPUs) / 4; f > 1 {
		// Contention is load-dependent: small per-GPU batches leave the
		// CPU unsaturated.
		load := float64(rows) / 2000
		if load > 1 {
			load = 1
		}
		contention = 1 + (f-1)*load
	}
	return raw + float64(rows)*s.tune.HostRowCost*contention
}

func (s *Simulator) stepPyTorch(b batchInfo) StepCost {
	u0 := uniqueCount(b.shard0)
	var c StepCost
	c.HostDRAM = s.hostRowPath(u0) * 2 // gather fwd + scatter bwd
	c.Comm = s.denseComm()
	c.Other = s.otherCost(s.tune.PyTorchFixed)
	return c
}

func (s *Simulator) stepUVM(b batchInfo) StepCost {
	u0 := uniqueCount(b.shard0)
	var c StepCost
	c.HostDRAM = s.topo.UVMFetch(u0, s.w.RowBytes(), s.sys.NumGPUs) * 2
	c.Comm = s.denseComm()
	c.Other = s.otherCost(s.tune.PyTorchFixed)
	return c
}

func (s *Simulator) stepHugeCTR(b batchInfo) StepCost {
	n := s.sys.NumGPUs
	u0 := uniqueCount(b.shard0)
	// Requests arriving at GPU 0's shard cache. Each GPU deduplicates its
	// own batch shard but not against the other ranks (Fig 2b buckets per
	// rank), so the owner serves every rank's copy: by symmetry the
	// request count is ≈ n × |shard₀ ∩ owned₀|. Hit bookkeeping runs over
	// the global owned set; the cache is single-writer (gradients route
	// to the owner), so lookups need no version check.
	hits, misses := 0, 0
	ownedShard := 0
	for k := range b.keySet {
		if comm.Owner(k, n) != 0 {
			continue
		}
		if s.cache0.Probe(k, 0) {
			hits++
		} else {
			s.cache0.Fill(k, 0)
			misses++
		}
	}
	foreign := 0
	for k := range b.shard0Set {
		if comm.Owner(k, n) != 0 {
			foreign++
		} else {
			ownedShard++
		}
	}
	requests := ownedShard * n
	if requests < hits+misses {
		requests = hits + misses
	}

	var c StepCost
	// Fig 2b: ➋ all_to_all keys, ➍ all_to_all embeddings (and the mirror
	// gradient exchange in backward).
	c.Comm = s.topo.AllToAll(int64(u0)*8) +
		2*s.topo.AllToAll(int64(foreign)*s.w.RowBytes()) +
		s.denseComm()
	// ➊ bucket keys / ➎ reorder + shard cache query & update. On
	// datacenter parts the message path uses P2P/UVA directly and skips
	// most of the CPU software (§2.4).
	sw := s.tune.CacheSoftwarePerKey
	if s.sys.GPU.PCIeP2P {
		sw *= s.tune.DatacenterSWFactor
	}
	c.Cache = s.topo.CacheAccess(requests, s.w.RowBytes())*2 +
		float64(u0)*2*sw
	// Cache misses fetch from host memory (read + write-back): the
	// CPU-involved path on commodity parts, the UVA zero-copy path on
	// datacenter parts.
	if s.sys.GPU.PCIeP2P {
		uva, err := s.topo.UVAGather(misses, s.w.RowBytes(), n)
		if err != nil {
			panic(err)
		}
		c.HostDRAM = uva * 1.5
	} else {
		c.HostDRAM = s.hostRowPath(misses) * 1.5
	}
	c.Other = s.otherCost(s.tune.HugeCTRFixed)
	return c
}

// stepUnified simulates a unified-address datacenter system (WholeGraph /
// torch-quiver style, §5): every GPU load/stores peer caches directly over
// P2P, eliminating collectives and CPU software from the access path.
// Structurally it is Frugal without the gate (peer stores keep owner
// caches coherent directly), with fine-grained P2P traffic instead of
// host bounces. Only legal on full-UVA (datacenter) parts.
func (s *Simulator) stepUnified(b batchInfo) StepCost {
	n := s.sys.NumGPUs
	u0 := uniqueCount(b.shard0)
	hits, misses, foreign := 0, 0, 0
	for k := range b.shard0Set {
		if comm.Owner(k, n) != 0 {
			foreign++
			continue
		}
		// Peer stores keep the owner's cache fresh: no version checks.
		if s.cache0.Probe(k, 0) {
			hits++
		} else {
			s.cache0.Fill(k, 0)
			misses++
		}
	}
	var c StepCost
	// Foreign reads and the mirror gradient stores are fine-grained P2P
	// accesses at random-access efficiency, plus aggregate hot-set misses
	// falling through to host UVA.
	peerBytes := float64(foreign) * float64(s.w.RowBytes()) * 2
	peerBW := s.tune.PeerRandomBWGBps * 1e9
	c.Comm = 2*s.topo.P.UVALatency + peerBytes/peerBW + s.denseComm()
	uva, err := s.topo.UVAGather(misses, s.w.RowBytes(), n)
	if err != nil {
		panic(err)
	}
	c.HostDRAM = uva
	c.Cache = s.topo.CacheAccess(hits, s.w.RowBytes()) +
		s.topo.CacheAccess(u0, s.w.RowBytes())
	c.Other = s.otherCost(s.tune.UnifiedFixed)
	return c
}

// stepFrugalLike simulates Frugal and Frugal-Sync: sharded local cache,
// UVA host reads, and either write-through (sync) or P²F flushing.
func (s *Simulator) stepFrugalLike(b batchInfo, writeThrough bool) StepCost {
	n := s.sys.NumGPUs
	u0 := uniqueCount(b.shard0)

	// GPU 0 reads its own shard: owned keys via the local cache
	// (version-checked: a row another GPU updated since the last fill is
	// stale), foreign keys via UVA from host memory.
	hits, misses, foreign := 0, 0, 0
	for k := range b.shard0Set {
		if comm.Owner(k, n) != 0 {
			foreign++
			continue
		}
		if s.cache0.Probe(k, s.versions[k]) {
			hits++
		} else {
			s.cache0.Fill(k, s.versions[k])
			misses++
		}
	}
	// The owner's own update keeps its cached copy fresh unless another
	// GPU also updates the key this step (then the version check will
	// refresh it on next use). Keys only this shard touches stay valid.
	for k := range b.shard0Set {
		if comm.Owner(k, n) == 0 && !b.multi[k] {
			s.cache0.Bump(k, s.versions[k]+1)
		}
	}

	var c StepCost
	uva, err := s.topo.UVAGather(misses+foreign, s.w.RowBytes(), n)
	if err != nil {
		// Catalog parts all support UVA-to-host; reaching here means a
		// miswired spec.
		panic(err)
	}
	c.HostDRAM = uva
	c.Cache = s.topo.CacheAccess(hits, s.w.RowBytes()) +
		s.topo.CacheAccess(u0, s.w.RowBytes()) // local cache update in backward

	if writeThrough {
		// Write-through: every update crosses to host memory on the
		// critical path, one by one.
		stall := float64(u0) * s.tune.SyncFlushRowCost
		c.Stall = stall
		c.HostDRAM += stall
		c.Comm = s.topo.DMA(int64(u0)*s.w.RowBytes(), n) + s.denseComm()
		c.Other = s.otherCost(s.tune.FrugalFixed)
		return c
	}

	// P²F: commit g-entries (cache bucket: metadata ops), ship updates
	// D2H asynchronously (mostly hidden), and pay a stall only when the
	// flusher pool has not yet drained the entries this step reads.
	c.Cache += float64(u0) * s.gEntryOpCost()
	bytes := float64(int64(u0) * s.w.RowBytes())
	c.Comm = s.topo.P.DMALatency + s.tune.AsyncCommFraction*bytes/(s.topo.GPU.LinkGBps*1e9*0.85) + s.denseComm()
	c.Other = s.otherCost(s.tune.FrugalFixed)

	rate := s.flushRate()
	// 1. Gate for this step. The urgent entries (pending writes this step
	// reads) were mostly committed at the very end of the previous
	// iteration; only the short commit→gate tail (optimizer epilogue,
	// straggler GPUs) was available to flush them, so the remainder
	// stalls the foreground — Exp #2's P²F stall.
	tailCredit := rate * c.Total() * s.tune.GateTailOverlap
	urgent := float64(s.pend.countUpTo(s.step)) - tailCredit
	stall := s.tune.GateFixed * 0.3 // gate bookkeeping (PQ scans, wakeups)
	if urgent > 0 {
		stall = urgent/rate + s.tune.GateFixed
	}
	c.Stall = stall
	c.HostDRAM += stall
	s.pend.drainUpTo(s.step)

	// 2. Background drain during this iteration: the flushers work
	// through the older pending entries in priority order (the most
	// urgent — the next steps' reads — first, deferred ∞ entries last).
	s.credit += c.Total() * rate * s.tune.FlushOverlap
	drained := s.pend.drain(int(s.credit))
	s.credit -= float64(drained)
	if s.credit > float64(s.w.KeysPerBatch()) {
		// Idle flushers do not bank unbounded credit; cap the carry-over
		// at roughly one batch of updates.
		s.credit = float64(s.w.KeysPerBatch())
	}

	// 3. Commit: every key the global batch updated becomes pending at
	// its next-occurrence priority (the Fig 6 deferral is this line: keys
	// with no upcoming read go to ∞). These land after this iteration's
	// drain window — the next gate sees whatever the tail cannot cover.
	for k := range b.keySet {
		s.pend.add(k, s.nextOccurrence(k))
	}
	return c
}

// Run simulates warmup+measure iterations and returns the mean cost.
func (s *Simulator) Run(warmup, measure int) Summary {
	for i := 0; i < warmup; i++ {
		s.Step()
	}
	if s.cache0 != nil {
		s.cache0.ResetStats()
	}
	var sum StepCost
	for i := 0; i < measure; i++ {
		c := s.Step()
		sum.Breakdown = sum.Breakdown.Add(c.Breakdown)
		sum.Stall += c.Stall
	}
	inv := 1 / float64(measure)
	out := Summary{
		Iter: StepCost{Breakdown: sum.Breakdown.Scale(inv), Stall: sum.Stall * inv},
	}
	out.Throughput = stats.Throughput(s.w.Batch, out.Iter.Total())
	if s.cache0 != nil {
		out.HitRatio = s.cache0.Stats().HitRatio()
	}
	if s.sys.Kind == SysFrugal {
		out.GEntryBatchTime = float64(uniqueCount(s.future[0].shard0)) * s.gEntryOpCost()
	}
	return out
}
