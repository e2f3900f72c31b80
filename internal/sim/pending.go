package sim

import "frugal/internal/pq"

// pendingSet models the population of the P²F priority queue in virtual
// time: every unflushed parameter update, bucketed by priority (the step
// that will next read it, or ∞ for deferred updates). The fluid flusher
// pool drains it lowest-priority-first between training events.
type pendingSet struct {
	byPrio map[int64]map[uint64]struct{}
	prioOf map[uint64]int64
}

func newPendingSet() *pendingSet {
	return &pendingSet{
		byPrio: make(map[int64]map[uint64]struct{}),
		prioOf: make(map[uint64]int64),
	}
}

// add registers an unflushed update for key at the given priority,
// replacing any previous pending priority for the key (one g-entry per
// key; its write set grows, its priority follows Equation (1)).
func (p *pendingSet) add(key uint64, prio int64) {
	if old, ok := p.prioOf[key]; ok {
		if old == prio {
			return
		}
		delete(p.byPrio[old], key)
		if len(p.byPrio[old]) == 0 {
			delete(p.byPrio, old)
		}
	}
	b := p.byPrio[prio]
	if b == nil {
		b = make(map[uint64]struct{})
		p.byPrio[prio] = b
	}
	b[key] = struct{}{}
	p.prioOf[key] = prio
}

// adjust moves an already-pending key to a new priority (the prefetch
// thread discovering an upcoming read of a deferred update). No-op when
// the key is not pending.
func (p *pendingSet) adjust(key uint64, prio int64) {
	if _, ok := p.prioOf[key]; ok {
		p.add(key, prio)
	}
}

// len returns the total pending population.
func (p *pendingSet) len() int { return len(p.prioOf) }

// countUpTo returns how many pending entries have priority ≤ s.
func (p *pendingSet) countUpTo(s int64) int {
	n := 0
	for prio, b := range p.byPrio {
		if prio != pq.Inf && prio <= s {
			n += len(b)
		}
	}
	return n
}

// drain removes up to capacity entries in ascending priority order
// (∞ last) and returns how many were removed — the fluid flusher pool.
func (p *pendingSet) drain(capacity int) int {
	if capacity <= 0 || len(p.prioOf) == 0 {
		return 0
	}
	removed := 0
	for removed < capacity && len(p.prioOf) > 0 {
		// Find the lowest-priority non-empty bucket. Bucket count is
		// bounded by the lookahead depth plus one (∞), so the scan is
		// cheap.
		best := pq.Inf
		found := false
		for prio, b := range p.byPrio {
			if len(b) == 0 {
				continue
			}
			if !found || prio < best {
				best, found = prio, true
			}
		}
		if !found {
			return removed
		}
		b := p.byPrio[best]
		for key := range b {
			delete(b, key)
			delete(p.prioOf, key)
			removed++
			if removed >= capacity {
				break
			}
		}
		if len(b) == 0 {
			delete(p.byPrio, best)
		}
	}
	return removed
}

// drainUpTo removes every pending entry with priority ≤ s and returns the
// count (the gate's mandatory flush work).
func (p *pendingSet) drainUpTo(s int64) int {
	removed := 0
	for prio, b := range p.byPrio {
		if prio == pq.Inf || prio > s {
			continue
		}
		removed += len(b)
		for key := range b {
			delete(p.prioOf, key)
		}
		delete(p.byPrio, prio)
	}
	return removed
}
