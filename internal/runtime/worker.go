package runtime

import (
	"context"
	"math"
	"time"

	"frugal/internal/cache"
	"frugal/internal/comm"
	"frugal/internal/fault"
	"frugal/internal/obs"
	"frugal/internal/p2f"
	"frugal/internal/tensor"
)

// stepMsg is one step's work delivered to a worker.
type stepMsg struct {
	step    int64
	payload stepPayload
}

// dispatch pulls steps from the sample queue (through the controller for
// EngineFrugal, so prefetch and read-set registration stay L steps ahead)
// and broadcasts them to the workers. It is the job's single cancellation
// point: a step is either broadcast to every worker or to none, so the
// barriers stay balanced and workers simply drain their channels and exit
// once dispatch stops.
func (j *Job) dispatch(ctx context.Context, chans []chan stepMsg) {
	defer func() {
		for _, ch := range chans {
			close(ch)
		}
	}()
	// Controller-less engines with prefetch on (EngineFrugalSync) have no
	// P²F prefetch goroutine to feed the lookahead stage, so dispatch reads
	// the trace ahead itself: before handing out step i it has pulled steps
	// through i+depth, feeding each key set to the prefetchers. PayloadTrace
	// retains payloads until Take, so the read-ahead is free.
	readAhead := int64(0)
	if j.ctrl == nil && j.prefetchers != nil {
		readAhead = int64(j.cfg.PrefetchDepth)
	}
	primed := int64(0) // steps pulled from the trace so far
	for i := int64(0); i < j.steps; i++ {
		if ctx.Err() != nil {
			return
		}
		var step int64
		if j.ctrl != nil {
			b, ok := j.ctrl.NextBatchCtx(ctx)
			if !ok {
				return
			}
			step = b.Step
		} else {
			target := i + 1 + readAhead
			if target > j.steps {
				target = j.steps
			}
			for primed < target {
				keys, ok := j.trace.Next()
				if !ok {
					break
				}
				if readAhead > 0 {
					j.feedPrefetch(primed, keys)
				}
				primed++
			}
			if i >= primed {
				return // trace exhausted before this step
			}
			step = i
		}
		payload := j.trace.Take(step)
		for _, ch := range chans {
			ch <- stepMsg{step: step, payload: payload}
		}
	}
}

// workerState is the per-GPU scratch reused across steps. After a few
// warm-up steps every buffer here has reached its steady-state size and
// the step path stops allocating (the alloc_test.go regression tests pin
// this; DESIGN.md §5d records the ownership rules).
type workerState struct {
	id      int
	rows    [][]float32 // gathered row views, aligned with shard keys
	grads   [][]float32 // per-occurrence gradient buffers, zero outside compute→commit
	scratch [][]float32 // backing buffers for host-read rows
	// kt holds all per-key step state (gather version, optimizer
	// accumulator, gathered row, accumulated delta), replacing the three
	// per-step maps the hot path used to churn through.
	kt *keyTable
	// dirty lists the distinct keys of the current commit in first-
	// occurrence order. Slot pointers are stable throughout commit because
	// only the gather phase can grow the table.
	dirty []*ktSlot
	// upd is the reusable CommitStep batch (EngineFrugal); the controller
	// does not retain the slice, only the delta buffers inside it.
	upd []p2f.KeyDelta
	// Gather batches, reused across steps: the keyTable slot of every
	// occurrence, the owned keys whose versions the step probes (with
	// their first-occurrence index), and the keys read from the slab with
	// their destination rows.
	occ      []*ktSlot
	verKeys  []uint64
	verIdx   []int
	vers     []uint64
	readKeys []uint64
	readDsts [][]float32
}

func (j *Job) newWorkerState(id int) *workerState {
	return &workerState{id: id, kt: newKeyTable()}
}

// ensure sizes the per-occurrence buffers and opens a fresh keyTable
// generation. Gradient buffers are NOT zeroed here: they are allocated
// zeroed, and commit's fused CopyClear/AccumClear returns them to zero
// after consuming them, so they are always zero outside the
// compute→commit window — the O(batch·dim) per-step wipe the old code
// paid is gone.
func (ws *workerState) ensure(n, dim int) {
	for len(ws.rows) < n {
		ws.rows = append(ws.rows, nil)
		ws.occ = append(ws.occ, nil)
		ws.grads = append(ws.grads, make([]float32, dim))
		ws.scratch = append(ws.scratch, make([]float32, dim))
	}
	ws.kt.reset()
	ws.kt.reserve(n)
}

// workerLoop is one trainer process (one GPU).
func (j *Job) workerLoop(w int, ch chan stepMsg) {
	ws := j.newWorkerState(w)
	for msg := range ch {
		j.step(ws, msg)
	}
}

// step runs one synchronous training step for one worker:
// gate → gather → read barrier → compute → commit → advance.
func (j *Job) step(ws *workerState, msg stepMsg) {
	shard := msg.payload.work[ws.id]
	n := len(shard.keys)
	ws.ensure(n, j.cfg.Dim)

	timed := j.stepObs != nil || j.cfg.OnStep != nil
	var stepStart time.Time
	if timed {
		stepStart = time.Now()
	}

	// 0. Injected straggler delay (fault plan): the trainer goes slow
	// before the gate, where a real GPU would hit preemption or a network
	// hiccup. The step barriers make every other trainer absorb it —
	// that's the synchronous-training cost the fault model exercises.
	if d := j.cfg.Faults.TrainerDelay(ws.id, msg.step); d > 0 {
		j.faultObs.Injected(ws.id, msg.step, int64(fault.KindTrainerDelay))
		time.Sleep(d)
	}

	// 1. Consistency gate (Frugal) — invariant (2) of §3.3.
	var stalled time.Duration
	if j.ctrl != nil {
		stalled = j.ctrl.WaitForStep(msg.step)
		j.gateObs.Wait(ws.id, msg.step, stalled)
		if j.cfg.CheckConsistency {
			if err := j.ctrl.CheckInvariant(msg.step, shard.keys); err != nil {
				// A violation is a bug in the P²F machinery, not a user
				// error; failing loudly (and unwinding the whole job)
				// beats training on stale parameters.
				panic(err)
			}
		}
	}

	// 2. Gather embedding rows. With prefetch on, first wait for the fill
	// pass covering this batch (it overlapped with the previous step's
	// compute, so this wait is normally already satisfied), then take the
	// cache guard: the prefetcher's fill stage and the gather phase share
	// the single-threaded cache directory.
	var pf *prefetcher
	if j.prefetchers != nil {
		pf = j.prefetchers[ws.id]
		pf.waitFor(msg.step)
		pf.mu.Lock()
	}
	j.gather(ws, shard.keys)
	if pf != nil {
		pf.mu.Unlock()
	}

	// 3. Read barrier: nobody commits step s until everyone has read it
	// (the synchronous-training contract CommitStep documents). In the
	// trace this is the collective phase of the step (the spot the
	// allgather/allreduce occupies on real hardware).
	j.tracer.Emit(obs.EvCollectiveStart, ws.id, msg.step, 0, 0)
	j.barrier.Wait()
	j.tracer.Emit(obs.EvCollectiveEnd, ws.id, msg.step, 0, 0)

	// 4. Compute forward/backward on the gathered rows.
	loss := shard.compute(ws.rows[:n], ws.grads[:n])
	j.addLoss(msg.step, loss)

	// 5. Commit: aggregate per-key deltas and push them down the
	// engine-specific write path. Afterwards the batch retires from the
	// lookahead window: its window pins are released and the prefetcher may
	// advance one more batch.
	j.commit(ws, msg.step, shard.keys)
	if pf != nil {
		pf.retire(msg.step)
	}

	// 6. Step barrier for the synchronous engines (the Frugal gate already
	// serialises steps through the committed-step watermark).
	if j.ctrl == nil {
		j.barrier.Wait()
	}

	var wall time.Duration
	if timed {
		wall = time.Since(stepStart)
	}
	j.finishStep(ws.id, msg.step, stalled, wall, msg.payload.release)
}

// gather fills ws.rows[i] for every shard key occurrence. Each distinct
// key is resolved once through its keyTable slot; repeat occurrences alias
// the first occurrence's row. This is safe because the step barriers
// keep host rows stable for the whole gather phase (commits of the
// previous step land before it, commits of this step after it), so every
// occurrence of a key reads the same bytes by construction.
//
// The slab sees two batched calls per step, so a remote slab pays two
// round trips per shard rather than one per row:
//
//  1. one Versions call for the owned keys of a cached engine, whose
//     cache lookups and inserts then run against those versions;
//  2. one GatherRows call for the cache misses and every other key —
//     foreign keys are read straight from host memory (the UVA path of
//     §3.1, safe without locks under the gate's no-pending-writes
//     guarantee), and the uncached engines read everything here.
//
// Cache rows are NOT copied out: the epoch pin taken by the hit (or fill)
// keeps the slot's storage untouched for the rest of the step, so the
// compute phase reads the slab directly — a hit costs zero copies and a
// miss exactly one (host → slab). Only when every way of the set is
// pinned by this step's earlier keys does the access fall back to the
// worker's private scratch row. Reads are direct (unlocked,
// gate-protected) under EngineFrugal and locked under the write-through
// and gate-less engines.
func (j *Job) gather(ws *workerState, keys []uint64) {
	var c *cache.Cache
	if j.caches != nil {
		c = j.caches[ws.id]
		// New pinning epoch: rows the cache hands out this step stay valid
		// until the next step even if later gathers fill the same set.
		c.BeginEpoch()
	}
	adagrad := j.cfg.Optimizer == OptAdagrad
	ws.verKeys, ws.verIdx = ws.verKeys[:0], ws.verIdx[:0]
	ws.readKeys, ws.readDsts = ws.readKeys[:0], ws.readDsts[:0]
	// ensure reserved the table for the whole batch, so slot pointers
	// taken here stay valid for the step.
	for i, k := range keys {
		s, fresh := ws.kt.get(k)
		ws.occ[i] = s
		if !fresh {
			continue
		}
		if adagrad {
			s.state = j.host.OptState(k) // Config.Slab rejects Adagrad
		}
		if c != nil && comm.Owner(k, j.cfg.NumGPUs) == ws.id {
			ws.verKeys = append(ws.verKeys, k)
			ws.verIdx = append(ws.verIdx, i)
			continue
		}
		ws.read(s, ws.scratch[i])
	}
	if len(ws.verKeys) > 0 {
		if cap(ws.vers) < len(ws.verKeys) {
			ws.vers = make([]uint64, len(ws.verKeys))
		}
		vers := ws.vers[:len(ws.verKeys)]
		j.slab.Versions(ws.verKeys, vers)
		for n, i := range ws.verIdx {
			s := ws.occ[i]
			s.ver = vers[n]
			if row, hit := c.Lookup(s.key, s.ver); hit {
				s.row = row
			} else if dst, _, _ := c.Insert(s.key, s.ver); dst != nil {
				ws.read(s, dst)
			} else {
				// Whole set pinned by this step's gathers: bypass the cache.
				ws.read(s, ws.scratch[i])
			}
		}
	}
	j.slab.GatherRows(ws.readKeys, ws.readDsts, j.cfg.Engine != EngineFrugal)
	for i := range keys {
		ws.rows[i] = ws.occ[i].row
	}
}

// read queues s's row for the step's slab read into dst.
func (ws *workerState) read(s *ktSlot, dst []float32) {
	s.row = dst
	ws.readKeys = append(ws.readKeys, s.key)
	ws.readDsts = append(ws.readDsts, dst)
}

// commit aggregates the per-occurrence gradients into one per-key
// gradient, runs the optimizer to produce a row delta (and, for Adagrad,
// an accumulator increment), and routes both down the engine's write
// path. The optimizer reads the gather-time host accumulator — stable
// under the gate's no-pending-writes guarantee — so every engine, at any
// GPU count, computes identical deltas for identical traces.
func (j *Job) commit(ws *workerState, step int64, keys []uint64) {
	// Phase 1: fold per-occurrence gradients into one pooled delta row per
	// distinct key. The fused kernels zero each gradient buffer as they
	// consume it, restoring the grads-are-zero-between-steps invariant
	// without a separate wipe. Pooled buffers arrive dirty; CopyClear
	// fully overwrites them.
	ws.dirty = ws.dirty[:0]
	for i, k := range keys {
		s, _ := ws.kt.get(k) // claimed during gather; never fresh here
		if s.delta == nil {
			s.delta = j.rowPool.Get()
			tensor.CopyClear(s.delta, ws.grads[i])
			ws.dirty = append(ws.dirty, s)
		} else {
			tensor.AccumClear(ws.grads[i], s.delta)
		}
	}

	// Phase 2: optimize and route down the engine's write path, in
	// deterministic first-occurrence order (the old map iteration was
	// random; per-key results are order-independent either way).
	switch j.cfg.Engine {
	case EngineDirect:
		for _, s := range ws.dirty {
			d, dG := j.optimize(s)
			j.slab.ApplyDelta(s.key, d, dG)
			j.rowPool.Put(s.delta)
			s.delta = nil
		}
	case EngineFrugalSync, EngineFrugal:
		// applyLocal walks the cache directory, so with prefetch on the
		// whole write-back loop runs under the worker's cache guard (the
		// fill stage holds the same lock; see prefetch.go).
		var pf *prefetcher
		if j.prefetchers != nil {
			pf = j.prefetchers[ws.id]
			pf.mu.Lock()
		}
		if j.cfg.Engine == EngineFrugalSync {
			// Write-through (Frugal-Sync of §4.1): apply synchronously to
			// host; the owner's cached copy absorbs the delta in place.
			for _, s := range ws.dirty {
				d, dG := j.optimize(s)
				j.applyLocal(ws, s.key, d, s.ver)
				j.slab.ApplyDelta(s.key, d, dG)
				j.rowPool.Put(s.delta)
				s.delta = nil
			}
			if pf != nil {
				pf.mu.Unlock()
			}
			return
		}
		ws.upd = ws.upd[:0]
		for _, s := range ws.dirty {
			d, dG := j.optimize(s)
			j.applyLocal(ws, s.key, d, s.ver)
			ws.upd = append(ws.upd, p2f.KeyDelta{Key: s.key, Delta: d, StateDelta: dG})
			// Ownership of the delta buffer moves to the P²F write set;
			// the flush sink pools it back after the host apply.
			s.delta = nil
		}
		if pf != nil {
			// CommitStep can block on queue work; release the cache guard
			// first so the fill stage keeps overlapping.
			pf.mu.Unlock()
		}
		j.flObs.Enqueued(ws.id, step, len(ws.upd))
		j.ctrl.CommitStep(step, ws.upd)
	}
}

// optimize turns a per-key raw gradient (accumulated in s.delta) into the
// row delta to apply and the optimizer-state increment, mutating the
// buffer in place. Adagrad operates on each worker's partial gradient
// (squared partials are not additive), so results are deterministic per
// GPU count but differ across GPU counts — the standard data-parallel
// Adagrad semantics.
func (j *Job) optimize(s *ktSlot) (delta []float32, stateDelta float32) {
	g := s.delta
	switch j.cfg.Optimizer {
	case OptAdagrad:
		var sq float32
		for _, v := range g {
			sq += v * v
		}
		sq /= float32(len(g)) // row-wise: mean squared gradient
		denom := float32(math.Sqrt(float64(s.state+sq))) + j.cfg.AdagradEps
		tensor.Scale(-j.cfg.LR/denom, g)
		return g, sq
	default: // OptSGD
		tensor.Scale(-j.cfg.LR, g)
		return g, 0
	}
}

// applyLocal folds a delta into the worker's cached copy of an owned key
// (no-op for foreign or uncached keys) and sets its version expectation to
// gatherVer+1: the cached copy is exactly as fresh as the host row
// will be after this worker's own delta lands — and provably staler
// whenever any other GPU's partial gradient for the same row lands too,
// in which case the next Lookup refreshes from (gate-protected) host
// memory. DESIGN.md §5 records this versioned-cache completion of the
// paper's design.
func (j *Job) applyLocal(ws *workerState, k uint64, d []float32, gatherVer uint64) {
	if comm.Owner(k, j.cfg.NumGPUs) != ws.id {
		return
	}
	row, hit := j.caches[ws.id].Lookup(k, 0) // version-agnostic fetch
	if !hit {
		return
	}
	tensor.Axpy(1, d, row)
	j.caches[ws.id].Bump(k, gatherVer+1)
}
