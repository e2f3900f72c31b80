// The inverted-file (IVF) top-K index.
//
// Exhaustive top-K costs one dot product per slab row — ~2.4 ms on a
// 100k×64 slab — which cannot carry a serving tier. The IVF index partitions the
// slab into C k-means clusters and answers a query by scoring the C
// centroids, scanning only the P nearest partitions, and re-scoring the
// survivors against live host rows. Cost drops from N row-dots to
// C + P·(N/C) + k, sublinear in N for C ≈ √(P·N).
//
// The index is a *derived* structure over host memory, so it inherits the
// staleness problem the consistency levels solve for reads — and it is
// bounded the same way. Every write set the P²F controller pushes through
// its sink also notifies the index (p2f.Controller.AddFlushHook) with the
// flushed key; the index records (key, watermark-at-flush) in a FIFO
// repair queue. At query time the level decides how much of the queue
// must drain before the scan may run:
//
//   - stale:      nothing (plus an opportunistic budget so the queue
//     never grows without bound under query load);
//   - bounded(k): every record with watermark ≤ wm−k, so the partitions
//     scanned reflect every host flush recorded more than k gate steps
//     ago — the index is provably at most k gate steps behind host
//     memory;
//   - fresh:      the whole queue, so every touched partition is repaired
//     before the scan.
//
// Selection is approximate (that is the speedup); scoring is not: on a
// live engine the winning candidates are always re-read and re-scored
// against the host slab under the row's stripe lock, so returned scores
// and RowMeta carry exactly the same guarantees the flat scan provides.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"frugal/internal/runtime"
	"frugal/internal/store"
	"frugal/internal/tensor"
)

// IndexKind selects the top-K scan strategy.
type IndexKind int

const (
	// IndexAuto defers the choice: on a Request it means "use the
	// engine's configured index"; in Options it means IndexFlat.
	IndexAuto IndexKind = iota
	// IndexFlat scans every slab row — exact, and the recall ground
	// truth for IndexIVF.
	IndexFlat
	// IndexIVF scans the NProbe nearest of Centroids k-means partitions —
	// sublinear, with recall governed by Centroids/NProbe.
	IndexIVF
)

// ParseIndexKind parses "auto" (or ""), "flat" or "ivf".
func ParseIndexKind(s string) (IndexKind, error) {
	switch s {
	case "", "auto":
		return IndexAuto, nil
	case "flat":
		return IndexFlat, nil
	case "ivf":
		return IndexIVF, nil
	}
	return IndexAuto, fmt.Errorf("serve: unknown index kind %q (want flat or ivf)", s)
}

// String renders the kind in ParseIndexKind's syntax.
func (k IndexKind) String() string {
	switch k {
	case IndexAuto:
		return "auto"
	case IndexFlat:
		return "flat"
	case IndexIVF:
		return "ivf"
	}
	return fmt.Sprintf("index(%d)", int(k))
}

// MarshalJSON renders the kind as its flag string, so /healthz and
// topk responses say "ivf", not an enum ordinal.
func (k IndexKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// Validate reports whether the kind is one of the declared constants.
func (k IndexKind) Validate() error {
	switch k {
	case IndexAuto, IndexFlat, IndexIVF:
		return nil
	}
	return fmt.Errorf("serve: unknown index kind %d", int(k))
}

const (
	// ivfSampleRows caps the k-means training sample.
	ivfSampleRows = 8192
	// ivfKMeansIters is the fixed Lloyd iteration budget.
	ivfKMeansIters = 6
	// ivfBuildChunk is the ReadRows block size of the final full-slab
	// assignment pass.
	ivfBuildChunk = 256
	// ivfRepairBudget is the opportunistic per-query repair allowance:
	// even a stale query drains up to this many queue records, so steady
	// query traffic keeps the index converged without any level ever
	// paying an unbounded drain.
	ivfRepairBudget = 64
)

// IndexStats is a snapshot of the IVF maintenance state, exposed for
// tests, /healthz and operators. Zero value when the engine has no IVF
// index.
type IndexStats struct {
	Kind      IndexKind `json:"kind"`
	Centroids int       `json:"centroids,omitempty"`
	NProbe    int       `json:"nprobe,omitempty"`
	// Pending is the repair-queue depth: host flushes not yet reflected
	// in the index.
	Pending int `json:"pending"`
	// OldestPending is the watermark recorded with the oldest unrepaired
	// flush (only meaningful when Pending > 0). After a bounded(k) query
	// at watermark wm, OldestPending > wm−k — the staleness invariant.
	OldestPending int64 `json:"oldest_pending"`
	// Repairs counts cluster-assignment repairs applied since build.
	Repairs int64 `json:"repairs"`
}

// dirtyKey is one repair-queue record: key's host row was rewritten by a
// flush while the committed-step watermark read wm.
type dirtyKey struct {
	key uint64
	wm  int64
}

type ivfPart struct {
	keys []uint64
	vecs []float32 // packed rows: keys[i] ↔ vecs[i*dim:(i+1)*dim]
}

// ivfIndex is the inverted-file index over one host slab.
type ivfIndex struct {
	dim    int
	nprobe int

	// cents and centBias are immutable after build: centBias[j] =
	// −‖c_j‖²/2, so argmax(cents·x + centBias) is the nearest centroid
	// by L2 — one MulVec, one Axpy, one ArgMax per assignment.
	cents    *tensor.Matrix
	centBias []float32

	// mu guards the partition state. Queries scan under RLock; repair
	// and build mutate under Lock.
	mu    sync.RWMutex
	parts []ivfPart
	part  []int32 // key → partition id (-1 before build assigns it)
	slot  []int32 // key → slot within its partition

	// Assignment scratch, only touched under mu.Lock (build and repair).
	rowBuf  []float32
	centBuf []float32

	// The repair queue. Records are appended in watermark order (the
	// watermark is monotone), deduplicated by pending: one record per
	// key, keeping the *first* unrepaired watermark — the index has seen
	// none of that key's flushes since. head indexes the FIFO front.
	dirtyMu sync.Mutex
	dirty   []dirtyKey
	head    int
	pending map[uint64]struct{}

	repairs atomic.Int64
}

// newIVFIndex allocates the index shell: the repair queue is immediately
// usable (so the flush hook can be installed before build walks a live
// slab), the partitions are empty until build runs.
func newIVFIndex(rows int64, dim, centroids, nprobe int) *ivfIndex {
	c := centroids
	if int64(c) > rows {
		c = int(rows)
	}
	x := &ivfIndex{
		dim:      dim,
		nprobe:   min(nprobe, c),
		cents:    tensor.NewMatrix(c, dim),
		centBias: make([]float32, c),
		parts:    make([]ivfPart, c),
		part:     make([]int32, rows),
		slot:     make([]int32, rows),
		rowBuf:   make([]float32, dim),
		centBuf:  make([]float32, c),
		pending:  make(map[uint64]struct{}),
	}
	for i := range x.part {
		x.part[i] = -1
	}
	return x
}

// build clusters the slab and packs the partitions. Deterministic for a
// given slab content (fixed-seed sampling, fixed iteration budget). Safe
// to run against a live slab: rows are read under their stripe locks,
// and any flush that lands mid-build is already in the repair queue when
// the caller installed the flush hook before calling build.
func (x *ivfIndex) build(host *runtime.Host) {
	rows, dim := host.Rows(), host.Dim()
	c := len(x.parts)

	// Sample the slab for Lloyd iterations.
	sn := int64(ivfSampleRows)
	if sn > rows {
		sn = rows
	}
	rng := rand.New(rand.NewSource(1))
	sample := tensor.NewMatrix(int(sn), dim)
	stride := rows / sn
	for i := int64(0); i < sn; i++ {
		key := i * stride
		if stride > 1 {
			key += rng.Int63n(stride)
		}
		host.ReadRow(uint64(key), sample.Row(int(i)))
	}

	// Init: evenly spaced sample rows (deterministic, spread across the
	// slab since the sample preserves slab order).
	for j := 0; j < c; j++ {
		tensor.Copy(x.cents.Row(j), sample.Row(j*int(sn)/c))
	}
	x.refreshBias()

	assign := make([]int, sn)
	counts := make([]int, c)
	sums := tensor.NewMatrix(c, dim)
	for iter := 0; iter < ivfKMeansIters; iter++ {
		for i := range counts {
			counts[i] = 0
		}
		tensor.Zero(sums.Data)
		for i := 0; i < int(sn); i++ {
			j := x.nearest(sample.Row(i))
			assign[i] = j
			counts[j]++
			tensor.Axpy(1, sample.Row(i), sums.Row(j))
		}
		for j := 0; j < c; j++ {
			if counts[j] == 0 {
				// Dead centroid: reseed from a random sample row.
				tensor.Copy(x.cents.Row(j), sample.Row(rng.Intn(int(sn))))
				continue
			}
			cr := x.cents.Row(j)
			tensor.Copy(cr, sums.Row(j))
			tensor.Scale(1/float32(counts[j]), cr)
		}
		x.refreshBias()
	}

	// Pre-size the partitions from the sample distribution, then assign
	// every slab row in ReadRows blocks.
	for i := 0; i < int(sn); i++ {
		counts[assign[i]]++
	}
	for j := range x.parts {
		est := int(int64(counts[j]) * rows / (2 * sn))
		x.parts[j].keys = make([]uint64, 0, est)
		x.parts[j].vecs = make([]float32, 0, est*dim)
	}
	block := make([]float32, ivfBuildChunk*dim)
	x.mu.Lock()
	for from := int64(0); from < rows; from += ivfBuildChunk {
		n := rows - from
		if n > ivfBuildChunk {
			n = ivfBuildChunk
		}
		b := block[:n*int64(dim)]
		host.ReadRows(from, b)
		for i := int64(0); i < n; i++ {
			row := b[i*int64(dim) : (i+1)*int64(dim)]
			x.appendTo(x.nearest(row), uint64(from+i), row)
		}
	}
	x.mu.Unlock()
}

// refreshBias recomputes centBias after a centroid update.
func (x *ivfIndex) refreshBias() {
	for j := range x.centBias {
		cr := x.cents.Row(j)
		x.centBias[j] = -tensor.Dot(cr, cr) / 2
	}
}

// nearest returns the L2-nearest centroid of row. Caller holds mu.Lock
// (it uses the shared centBuf scratch) — except during the sample phase
// of build, before the index is published.
func (x *ivfIndex) nearest(row []float32) int {
	x.cents.MulVec(row, x.centBuf)
	tensor.Axpy(1, x.centBias, x.centBuf)
	return tensor.ArgMax(x.centBuf)
}

// appendTo adds key to partition j. Caller holds mu.Lock.
func (x *ivfIndex) appendTo(j int, key uint64, row []float32) {
	p := &x.parts[j]
	x.part[key] = int32(j)
	x.slot[key] = int32(len(p.keys))
	p.keys = append(p.keys, key)
	p.vecs = append(p.vecs, row...)
}

// removeFrom deletes key from partition j by swapping the last slot in.
// Caller holds mu.Lock.
func (x *ivfIndex) removeFrom(j int, key uint64) {
	p := &x.parts[j]
	s := int(x.slot[key])
	last := len(p.keys) - 1
	if s != last {
		moved := p.keys[last]
		p.keys[s] = moved
		copy(p.vecs[s*x.dim:(s+1)*x.dim], p.vecs[last*x.dim:(last+1)*x.dim])
		x.slot[moved] = int32(s)
	}
	p.keys = p.keys[:last]
	p.vecs = p.vecs[:last*x.dim]
}

// markDirty is the controller's flush-hook target: key's host row was
// rewritten while the watermark read wm. Runs on the flushing goroutine
// with the key's g-entry lock held — it only enqueues.
func (x *ivfIndex) markDirty(key uint64, wm int64) {
	x.dirtyMu.Lock()
	if _, ok := x.pending[key]; !ok {
		x.pending[key] = struct{}{}
		x.dirty = append(x.dirty, dirtyKey{key: key, wm: wm})
	}
	x.dirtyMu.Unlock()
}

// repair drains the repair queue: every record with watermark ≤ upTo
// (the level's obligation), plus up to extra more from the front (the
// opportunistic budget). A key is removed from the pending set *before*
// its host row is re-read, so a flush racing the repair either lands
// before the read (the repair picks it up) or re-enqueues the key —
// a repaired key is never left silently stale.
func (x *ivfIndex) repair(host *runtime.Host, upTo int64, extra int) {
	var batch [ivfRepairBudget]dirtyKey
	for {
		n := 0
		x.dirtyMu.Lock()
		for n < len(batch) && x.head < len(x.dirty) {
			e := x.dirty[x.head]
			if e.wm > upTo {
				// The FIFO is watermark-ordered: past upTo only the
				// opportunistic budget keeps draining.
				if extra <= 0 {
					break
				}
				extra--
			}
			delete(x.pending, e.key)
			batch[n] = e
			n++
			x.head++
		}
		if x.head == len(x.dirty) {
			x.dirty, x.head = x.dirty[:0], 0
		} else if x.head > 1024 && 2*x.head > len(x.dirty) {
			x.dirty = append(x.dirty[:0], x.dirty[x.head:]...)
			x.head = 0
		}
		x.dirtyMu.Unlock()
		if n == 0 {
			return
		}
		x.mu.Lock()
		for _, e := range batch[:n] {
			x.reassign(host, e.key)
		}
		x.mu.Unlock()
		x.repairs.Add(int64(n))
	}
}

// reassign re-reads key's live host row and moves it to (or refreshes it
// in) its nearest partition. Caller holds mu.Lock.
func (x *ivfIndex) reassign(host *runtime.Host, key uint64) {
	host.ReadRow(key, x.rowBuf)
	j := x.nearest(x.rowBuf)
	old := int(x.part[key])
	if old == j {
		s := int(x.slot[key])
		copy(x.parts[j].vecs[s*x.dim:(s+1)*x.dim], x.rowBuf)
		return
	}
	if old >= 0 {
		x.removeFrom(old, key)
	}
	x.appendTo(j, key, x.rowBuf)
}

// search scans the nprobe partitions nearest to query and returns the
// top-k candidate heap (scored against the packed partition copies; the
// engine re-scores against live rows as the level demands). The heap is
// built in sc.heap; centroid scoring uses sc.cent/sc.probes.
func (x *ivfIndex) search(query []float32, k, nprobe int, sc *topkScratch) []Candidate {
	x.cents.MulVec(query, sc.cent)
	p := nprobe
	if p <= 0 || p > len(x.parts) {
		p = len(x.parts)
	}
	probes := sc.probes[:p]
	tensor.TopIndices(sc.cent, probes)
	heap := sc.heap[:0]
	x.mu.RLock()
	for _, pi := range probes {
		part := &x.parts[pi]
		for from := 0; from < len(part.keys); from += topkChunk {
			n := len(part.keys) - from
			if n > topkChunk {
				n = topkChunk
			}
			scores := sc.scores[:n]
			m := tensor.Matrix{Rows: n, Cols: x.dim, Data: part.vecs[from*x.dim : (from+n)*x.dim]}
			m.MulVec(query, scores)
			for i, s := range scores {
				if len(heap) < k || s >= heap[0].Score {
					heap = store.KeepBest(heap, k, Candidate{Key: part.keys[from+i], Score: s}, candRank)
				}
			}
		}
	}
	x.mu.RUnlock()
	return heap
}

// stats snapshots the maintenance state.
func (x *ivfIndex) stats() IndexStats {
	st := IndexStats{
		Kind:          IndexIVF,
		Centroids:     len(x.parts),
		NProbe:        x.nprobe,
		OldestPending: math.MaxInt64,
		Repairs:       x.repairs.Load(),
	}
	x.dirtyMu.Lock()
	st.Pending = len(x.dirty) - x.head
	if st.Pending > 0 {
		st.OldestPending = x.dirty[x.head].wm
	}
	x.dirtyMu.Unlock()
	return st
}
