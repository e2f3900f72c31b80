package runtime

import (
	"sync"

	"frugal/internal/cache"
	"frugal/internal/comm"
)

// This file implements the BagPipe-style lookahead prefetcher (see
// DESIGN.md §5i). The P²F controller already walks the sample trace L
// steps ahead of training to register future reads; the prefetcher rides
// the same stream to make the cache *oracle-fed*: while step S computes,
// it pulls the key sets of batches S+1..S+depth, fills predicted misses
// from host memory, and window-pins every slot those batches will touch so
// eviction cannot victimize a row the window is about to re-request. The
// gather at S+1 then finds its rows resident and keeps the PR-3 zero-copy,
// zero-alloc fast path.
//
// Concurrency model. The cache directory is single-threaded by design, so
// each worker's prefetcher owns a mutex (mu) that serialises every
// directory access: the prefetcher's fill pass, the worker's gather phase,
// and the commit phase's applyLocal writes all hold it. The compute phase
// deliberately does NOT — it only reads row storage of slots that are
// epoch-pinned (gathered this step), and the prefetcher never rewrites the
// bytes of an epoch-pinned slot, so compute overlaps with prefetch I/O,
// which is the point of the whole exercise.
//
// Flush-race safety. A prefetched row may be rewritten by a concurrent
// flush between its fill and its use. Each fill chunk probes its keys'
// versions with one RowStore.Versions call, then reads the rows it fills
// with one locked GatherRows call, and each slot is tagged with the
// version probed *before* the gather. The slab bumps a version under the
// row lock after the write, so the gathered bytes hold at least the
// updates the tag counts: the tag is never ahead of the content. A row
// written after the probe (or after the fill) simply misses its version
// check at gather (counted PrefetchLate) and is refilled from the
// gate-protected host row; a stale prefetch is never served.

// pfBatch is one future batch buffered in the prefetcher's ring: a private
// copy of its key set and the slots it window-pinned. Both slices recycle
// their capacity across laps, so the steady-state prefetch path allocates
// nothing.
type pfBatch struct {
	keys []uint64 // guarded by fmu (written at feed, read by the fill pass)
	// pinned lists the slot indices this batch window-pinned, to unpin at
	// retire. Guarded by mu (the cache guard), like the pins themselves.
	pinned []int32
}

// prefetcher runs the lookahead fill stage for one worker's cache.
type prefetcher struct {
	id      int
	numGPUs int
	c       *cache.Cache
	slab    RowStore
	depth   int

	// Fill-chunk scratch, used only by the fill goroutine under mu: the
	// chunk's owned keys and their probed versions, and the keys and
	// cache rows of the fills its one gather lands.
	owned, vers []uint64
	gKeys       []uint64
	gDsts       [][]float32

	// mu serialises all access to the cache directory and to in-place row
	// refills: prefetch fill pass vs. the worker's gather and applyLocal.
	mu sync.Mutex

	// fmu guards the feed/processing/retire counters and the ring slots'
	// step/keys fields; cond multiplexes all three wait conditions (ring
	// space for feed, work for loop, completion for waitFor).
	fmu     sync.Mutex
	cond    *sync.Cond
	ring    []pfBatch
	fed     int64 // batches received from the trace feed
	done    int64 // batches whose fill pass completed
	retired int64 // batches whose step has committed (pins released)
	stopped bool
	wg      sync.WaitGroup
}

// newPrefetcher builds the prefetcher for worker id. lookahead is the
// controller's L (bounds how far ahead the feed can run), depth how many
// filled batches may be outstanding at once.
func newPrefetcher(id, numGPUs int, c *cache.Cache, slab RowStore, depth, lookahead int) *prefetcher {
	p := &prefetcher{
		id:      id,
		numGPUs: numGPUs,
		c:       c,
		slab:    slab,
		depth:   depth,
		// The ring must absorb the deepest natural in-flight window —
		// depth unprocessed batches plus up to L fed-but-unretired ones —
		// without blocking the feed; slack on top costs only metadata.
		ring:  make([]pfBatch, depth+lookahead+4),
		owned: make([]uint64, 0, fillChunk),
		vers:  make([]uint64, fillChunk),
		gKeys: make([]uint64, 0, fillChunk),
		gDsts: make([][]float32, 0, fillChunk),
	}
	p.cond = sync.NewCond(&p.fmu)
	return p
}

func (p *prefetcher) start() {
	p.wg.Add(1)
	go p.loop()
}

// stop wakes every waiter and joins the fill goroutine. Idempotent; safe
// while feeds, waits and retires are still arriving (they all bail out on
// the stopped flag).
func (p *prefetcher) stop() {
	p.fmu.Lock()
	if p.stopped {
		p.fmu.Unlock()
		p.wg.Wait()
		return
	}
	p.stopped = true
	p.cond.Broadcast()
	p.fmu.Unlock()
	p.wg.Wait()
}

// feed hands the prefetcher the key set of one future batch. Batches must
// arrive in step order starting at 0 (both feeds — the P²F prefetch hook
// and the write-through dispatcher's read-ahead — enumerate steps
// sequentially, so batch k is step k). The keys slice is copied; the
// caller may reuse it. Blocks for ring space, which backpressures the
// controller's prefetch goroutine exactly like a full sample queue.
func (p *prefetcher) feed(keys []uint64) {
	p.fmu.Lock()
	for !p.stopped && p.fed-p.retired >= int64(len(p.ring)) {
		p.cond.Wait()
	}
	if p.stopped {
		p.fmu.Unlock()
		return
	}
	b := &p.ring[p.fed%int64(len(p.ring))]
	b.keys = append(b.keys[:0], keys...)
	p.fed++
	p.cond.Broadcast()
	p.fmu.Unlock()
}

// waitFor blocks until the fill pass for step has completed, so the
// worker's gather finds its rows resident and window-pinned. Returns
// immediately on stop (the gather then simply pays demand misses).
// Progress is guaranteed with depth ≥ 1: when the worker asks for step S
// it has retired S batches, so done may advance to at least S+1.
func (p *prefetcher) waitFor(step int64) {
	p.fmu.Lock()
	for !p.stopped && p.done <= step {
		p.cond.Wait()
	}
	p.fmu.Unlock()
}

// retire releases the window pins of the oldest outstanding batch (the one
// the worker just committed), letting eviction reclaim slots no future
// batch in the window needs and opening the depth budget for the next fill.
func (p *prefetcher) retire(step int64) {
	p.fmu.Lock()
	if p.retired >= p.done {
		// Stopped mid-window: the batch was never filled, nothing pinned.
		if p.retired < p.fed {
			p.retired++
		}
		p.cond.Broadcast()
		p.fmu.Unlock()
		return
	}
	b := &p.ring[p.retired%int64(len(p.ring))]
	p.fmu.Unlock()

	p.mu.Lock()
	for _, i := range b.pinned {
		p.c.WindowUnpin(int(i))
	}
	b.pinned = b.pinned[:0]
	p.mu.Unlock()

	p.fmu.Lock()
	p.retired++
	p.cond.Broadcast()
	p.fmu.Unlock()
}

// loop is the fill goroutine: process fed batches in order, at most depth
// ahead of the retire frontier.
func (p *prefetcher) loop() {
	defer p.wg.Done()
	for {
		p.fmu.Lock()
		for !p.stopped && (p.done >= p.fed || p.done-p.retired >= int64(p.depth)) {
			p.cond.Wait()
		}
		if p.stopped {
			p.fmu.Unlock()
			return
		}
		b := &p.ring[p.done%int64(len(p.ring))]
		p.fmu.Unlock()

		p.fill(b)

		p.fmu.Lock()
		p.done++
		p.cond.Broadcast()
		p.fmu.Unlock()
	}
}

// fillChunk bounds the keys one fill step handles under the cache guard
// (see fill): one Versions probe and one GatherRows read per chunk.
const fillChunk = 64

// fill makes every owned key of the batch resident and window-pins its
// slot. Three cases per key: fresh resident — pin only; stale resident —
// refill in place (unless the slot is epoch-pinned, whose bytes a live
// gather may alias — then leave it to demand fill); absent — claim a slot
// through InsertPrefetch and fill it (a fully blocked set rejects the
// claim, which the cache counts, and demand gather falls back to scratch).
func (p *prefetcher) fill(b *pfBatch) {
	// The guard is released every fillChunk keys: holding it across a whole
	// batch would stall a concurrent gather (an earlier step's, already past
	// its waitFor) behind hundreds of fills, serialising exactly the phases
	// the prefetcher exists to overlap. Partial fills are safe — waitFor
	// orders a step's gather after its ENTIRE fill pass, so chunk boundaries
	// are only ever observed by other steps' directory work.
	for off := 0; off < len(b.keys); off += fillChunk {
		p.fillChunk(b, b.keys[off:min(off+fillChunk, len(b.keys))])
	}
}

// fillChunk probes the chunk's owned keys with one Versions call, claims
// and window-pins a slot for every fill, and reads all fills with one
// locked GatherRows call. A slot is pinned as soon as it is claimed, so a
// later claim in the chunk cannot evict it before the gather lands, and
// tagged with the version probed before the gather (never ahead of the
// bytes). The guard is held throughout, so no gather sees a claimed slot
// before its bytes arrive.
func (p *prefetcher) fillChunk(b *pfBatch, keys []uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.owned = p.owned[:0]
	for _, k := range keys {
		if comm.Owner(k, p.numGPUs) == p.id {
			p.owned = append(p.owned, k)
		}
	}
	if len(p.owned) == 0 {
		return
	}
	vers := p.vers[:len(p.owned)]
	p.slab.Versions(p.owned, vers)
	p.gKeys, p.gDsts = p.gKeys[:0], p.gDsts[:0]
	for n, k := range p.owned {
		i := p.c.PeekSlot(k)
		if i >= 0 && p.c.SlotVersion(i) >= vers[n] {
			p.pin(b, i)
			continue
		}
		var dst []float32
		if i >= 0 {
			if p.c.SlotEpochPinned(i) {
				continue
			}
			dst = p.c.SlotRow(i)
		} else if i, dst = p.c.InsertPrefetch(k); i < 0 {
			continue
		}
		p.c.MarkPrefetched(i, vers[n])
		p.pin(b, i)
		p.gKeys = append(p.gKeys, k)
		p.gDsts = append(p.gDsts, dst)
	}
	if len(p.gKeys) > 0 {
		p.slab.GatherRows(p.gKeys, p.gDsts, true)
	}
}

// pin window-pins slot i for batch b. Caller holds mu.
func (p *prefetcher) pin(b *pfBatch, i int) {
	p.c.WindowPin(i)
	b.pinned = append(b.pinned, int32(i))
}

// feedPrefetch fans one future batch's key set out to every worker's
// prefetcher (each fills only the keys it owns). For EngineFrugal it is
// the controller's OnPrefetch hook; for EngineFrugalSync the dispatcher
// calls it from its read-ahead loop.
func (j *Job) feedPrefetch(step int64, keys []uint64) {
	for _, p := range j.prefetchers {
		p.feed(keys)
	}
}

func (j *Job) startPrefetchers() {
	for _, p := range j.prefetchers {
		p.start()
	}
}

func (j *Job) stopPrefetchers() {
	for _, p := range j.prefetchers {
		p.stop()
	}
}
