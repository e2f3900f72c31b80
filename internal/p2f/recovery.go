package p2f

import (
	"sync/atomic"
	"time"

	"frugal/internal/pq"
)

// Recovery configures the controller's self-healing layer: heartbeat
// monitoring of the flusher pool, respawning of dead or stalled threads,
// and the gate watchdog that degrades EngineFrugal to write-through
// rather than letting trainers deadlock on a gate no flusher can open.
type Recovery struct {
	// Disabled turns the whole layer off: no supervisor goroutine, no
	// heartbeats, no watchdog. Crash/stall faults then shrink the pool
	// permanently (the pre-recovery behaviour, kept for experiments).
	Disabled bool
	// HeartbeatInterval is the supervisor's scan period (default 1ms).
	HeartbeatInterval time.Duration
	// StallTimeout is how stale a flusher's heartbeat may grow before the
	// supervisor declares it stalled and supersedes it (default 250ms).
	StallTimeout time.Duration
	// MaxRespawns is the pool-wide respawn budget (default 16; negative
	// disables respawning while keeping the watchdog).
	MaxRespawns int
	// RespawnBackoff is the initial per-slot delay before a respawn; it
	// doubles on every subsequent respawn of the same slot (default 1ms).
	RespawnBackoff time.Duration
	// GateTimeout is how long the gate may stay blocked with a non-empty
	// queue and zero flush progress before the watchdog degrades the run
	// to write-through (default 5s; negative disables the watchdog).
	GateTimeout time.Duration
}

func (r *Recovery) normalize() {
	if r.HeartbeatInterval <= 0 {
		r.HeartbeatInterval = time.Millisecond
	}
	if r.StallTimeout <= 0 {
		r.StallTimeout = 250 * time.Millisecond
	}
	if r.MaxRespawns == 0 {
		r.MaxRespawns = 16
	}
	if r.RespawnBackoff <= 0 {
		r.RespawnBackoff = time.Millisecond
	}
	if r.GateTimeout == 0 {
		r.GateTimeout = 5 * time.Second
	}
}

// RecoveryStats reports what the self-healing layer did during a run.
type RecoveryStats struct {
	// FlusherCrashes counts flushing threads that died (injected faults).
	FlusherCrashes int64 `json:"flusherCrashes"`
	// StallsDetected counts stalled threads the supervisor superseded.
	StallsDetected int64 `json:"stallsDetected"`
	// Respawns counts replacement flushing threads launched.
	Respawns int64 `json:"respawns"`
	// Redistributed counts g-entries a dying flusher re-enqueued from its
	// in-flight dequeue batch.
	Redistributed int64 `json:"redistributed"`
	// Degraded reports whether the gate watchdog switched the run to
	// write-through; DegradedStep is the committed watermark at the
	// transition (-1 when not degraded).
	Degraded     bool  `json:"degraded"`
	DegradedStep int64 `json:"degradedStep"`
}

// flusherSlot is the supervisor's view of one flusher-pool position. The
// goroutine occupying the slot is identified by its generation: bumping
// gen supersedes it (it exits at its next loop check), which is how both
// respawn-after-crash and stall takeover work. batches is the lifetime
// dequeue-batch ordinal — it survives respawns so a fault plan can
// target a replacement thread too.
type flusherSlot struct {
	gen       atomic.Int64
	heartbeat atomic.Int64 // UnixNano of the last loop iteration
	dead      atomic.Bool
	batches   atomic.Int64

	// Respawn pacing; touched only by the supervisor goroutine.
	backoff   time.Duration
	respawnAt int64 // UnixNano before which the slot must not respawn
}

// crashFlusher implements an injected flusher-thread death. The §3.3
// invariant forbids dying with claimed-but-unapplied updates — the gate
// reads Top(), so an update invisible to the queue could let a step read
// a stale host row. The thread therefore goes down "mid-batch" in a
// controlled way: it dequeues its next batch and, inside each g-entry's
// critical section, claims the entry and immediately re-enqueues it at
// its current priority, so a live queue node exists at every instant and
// any surviving (or respawned) flusher picks the work up. Then it marks
// its slot dead for the supervisor and exits.
func (c *Controller) crashFlusher(slot *flusherSlot) {
	redistributed := 0
	c.queue.ProcessBatch(c.opt.DequeueBatchSize, func(g *pq.GEntry, slotPriority int64) bool {
		if !g.InQueue || g.Priority != slotPriority {
			return false // residue; the visit culls it
		}
		g.InQueue = false
		c.queue.Enqueue(g, g.ComputePriority())
		redistributed++
		return true
	})
	c.redistributed.Add(int64(redistributed))
	c.crashes.Add(1)
	slot.dead.Store(true)
	c.broadcast()
}

// supervisorLoop is the self-healing monitor: it scans the pool's
// heartbeats, respawns dead or stalled flushers with exponential per-slot
// backoff under a pool-wide budget, and runs the gate watchdog. Once the
// run is degraded, it also acts as drainer of last resort so write-through
// progress never depends on a pool that may be entirely dead.
func (c *Controller) supervisorLoop() {
	defer c.wg.Done()
	r := c.opt.Recovery
	ticker := time.NewTicker(r.HeartbeatInterval)
	defer ticker.Stop()
	lastFlushed := c.flushedUpdates.Load()
	lastProgress := time.Now()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		if r.MaxRespawns >= 0 {
			c.healPool(now, r)
		}
		// Watchdog: "progress" is any flush reaching the sink; an empty
		// queue or an unblocked gate also counts (nothing is owed).
		if f := c.flushedUpdates.Load(); f != lastFlushed || c.queue.Len() == 0 || c.waiters.Load() == 0 {
			lastFlushed = f
			lastProgress = now
		}
		if c.degraded.Load() {
			c.drainSync(-1)
		} else if r.GateTimeout > 0 && now.Sub(lastProgress) > r.GateTimeout {
			c.degrade()
		}
	}
}

// healPool respawns dead flushers and supersedes stalled ones. Only the
// supervisor calls it.
func (c *Controller) healPool(now time.Time, r Recovery) {
	for id, slot := range c.slots {
		stale := now.Sub(time.Unix(0, slot.heartbeat.Load())) > r.StallTimeout
		if !slot.dead.Load() && !stale {
			continue
		}
		if c.respawns.Load() >= int64(r.MaxRespawns) {
			continue // budget exhausted; the slot stays down
		}
		if now.UnixNano() < slot.respawnAt {
			continue // backing off
		}
		if !slot.dead.Load() {
			// Stalled, not dead: bumping gen below makes the sleeping
			// thread exit when it wakes instead of racing its replacement.
			c.stallsDetected.Add(1)
		}
		gen := slot.gen.Add(1)
		slot.dead.Store(false)
		slot.heartbeat.Store(now.UnixNano())
		if slot.backoff <= 0 {
			slot.backoff = r.RespawnBackoff
		} else {
			slot.backoff *= 2
		}
		slot.respawnAt = now.Add(slot.backoff).UnixNano()
		total := c.respawns.Add(1)
		c.faultObs.Respawned(id, total)
		c.wg.Add(1)
		go c.flusherLoop(id, gen)
	}
}

// degrade switches the run to write-through (Frugal-Sync semantics):
// CommitStep starts applying updates directly through the sink, and the
// backlog the dead pool left behind is drained cooperatively so the gate
// opens. Idempotent; records the committed watermark at the transition.
func (c *Controller) degrade() {
	if c.degraded.Swap(true) {
		return
	}
	c.mu.Lock()
	step := c.committedStep
	c.mu.Unlock()
	c.degradedStep.Store(step)
	c.faultObs.Degraded(step)
	c.drainSync(-1)
}

// drainSync drains the priority queue from the caller's goroutine until
// it is empty and no flushing batch has writes in flight, applying
// pending writes through the sink. It is the shared engine of DrainAll
// (the end-of-training epilogue), the degraded-mode gate path, and the
// supervisor's drainer-of-last-resort tick; safe for concurrent callers. id identifies the drainer to the observability
// layer (-1 for non-pool drainers).
func (c *Controller) drainSync(id int) {
	st := c.newStage(id)
	defer c.releaseStage(st)
	for !c.stopping.Load() && !c.idle() {
		if !c.flushBatch(st) {
			// Remaining entries are mid-visit or in flight in a concurrent
			// drainer's batch; yield until they land.
			time.Sleep(5 * time.Microsecond)
		}
	}
	c.broadcast()
}

// commitDegraded is CommitStep's write-through path (Frugal-Sync
// semantics, §4 baseline): updates go straight to host memory instead of
// the priority queue. Any backlog a key still carries from before the
// degradation is flushed first inside the same critical section, which
// preserves per-key step order (a write set a flusher still has in flight
// is waited for first). Entries stay out of the queue, so the
// gate's Top() check is trivially satisfied once the old backlog drains.
func (c *Controller) commitDegraded(s int64, updates []KeyDelta) {
	for _, kd := range updates {
		g, _ := c.dir.GetOrInsert(kd.Key, func() *pq.GEntry { return pq.NewGEntry(kd.Key) })
		c.lockLanded(g)
		g.RemoveRead(s)
		g.AddWriteState(s, kd.Delta, kd.StateDelta)
		c.landWrites(g)
		g.Mu.Unlock()
	}
	c.committed(s)
}

// RecoveryStats snapshots what the self-healing layer has done so far.
func (c *Controller) RecoveryStats() RecoveryStats {
	return RecoveryStats{
		FlusherCrashes: c.crashes.Load(),
		StallsDetected: c.stallsDetected.Load(),
		Respawns:       c.respawns.Load(),
		Redistributed:  c.redistributed.Load(),
		Degraded:       c.degraded.Load(),
		DegradedStep:   c.degradedStep.Load(),
	}
}

// sleepFault sleeps for an injected stall/delay duration, returning early
// if the controller stops.
func (c *Controller) sleepFault(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.stop:
	}
}
