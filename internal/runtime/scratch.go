package runtime

import (
	"math"
	"sync"

	"frugal/internal/pq"
)

// This file holds the zero-allocation machinery of the steady-state step
// path (DESIGN.md §5d): keyTable, the generation-stamped open-addressed
// scratch table that replaces the per-step Go maps in workerState, and
// rowPool, the free list that recycles per-key delta rows across steps.

// ktSlot is one keyTable entry: everything the step path needs to know
// about one distinct key of the current batch.
type ktSlot struct {
	key uint64
	gen uint32
	// ver is the host version observed at gather time; applyLocal uses it
	// to set the owner cache's freshness expectation after the commit.
	ver uint64
	// state is the per-key optimizer accumulator at gather time — the gate
	// guarantees it is stable while the step reads, and reading it here
	// (not at commit time) keeps the optimizer deterministic under
	// concurrent flushes of other workers' partials.
	state float32
	// row is the gathered row for this key, set at its first occurrence;
	// repeat occurrences alias it instead of re-reading.
	row []float32
	// delta is the pooled per-key delta row, attached at the key's first
	// commit occurrence and nil outside the commit phase.
	delta []float32
}

// keyTable is an open-addressed, uint64-keyed scratch table reused across
// steps. Clearing is O(1): reset bumps the generation, and a slot whose
// stamp is stale counts as free. Within one step, claimed slots never
// revert to free, so probe chains stay consistent; the table grows (and
// rehashes live entries) only during the gather phase, which claims all of
// a step's keys — the commit phase only looks up existing entries, so slot
// pointers taken during commit remain stable.
type keyTable struct {
	slots []ktSlot
	mask  uint64
	gen   uint32
	used  int
}

const ktMinSize = 1024 // power of two; comfortably holds a 512-key batch

func newKeyTable() *keyTable {
	return &keyTable{slots: make([]ktSlot, ktMinSize), mask: ktMinSize - 1}
}

// reset starts a new step: every slot becomes logically free.
func (t *keyTable) reset() {
	t.gen++
	t.used = 0
	if t.gen == 0 { // uint32 wrap: clear stamps once per 4B steps
		for i := range t.slots {
			t.slots[i].gen = 0
		}
		t.gen = 1
	}
}

// mix is the splitmix64 finalizer — full-avalanche so sequential key
// ranges spread across the table.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// get returns the slot for key, claiming a fresh one (fresh=true) when the
// key has not been seen this step. Claimed slots are valid until the next
// reset or grow; grow can only happen inside get itself, so callers may
// use the returned pointer until their next get call — and throughout the
// commit phase, which never claims.
func (t *keyTable) get(key uint64) (s *ktSlot, fresh bool) {
	if t.used >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
	i := mix(key) & t.mask
	for {
		s = &t.slots[i]
		if s.gen == t.gen {
			if s.key == key {
				return s, false
			}
			i = (i + 1) & t.mask
			continue
		}
		// Free (stale generation): claim it.
		s.key = key
		s.gen = t.gen
		s.ver = 0
		s.state = 0
		s.row = nil
		s.delta = nil
		t.used++
		return s, true
	}
}

// reserve grows the table until n distinct keys fit without another grow,
// so slot pointers taken while claiming a step's keys stay valid for the
// whole step. Called right after reset; after warm-up it never grows.
func (t *keyTable) reserve(n int) {
	for n >= len(t.slots)-len(t.slots)/4 {
		t.grow()
	}
}

// grow doubles the table and rehashes the current generation's entries.
// Amortised: after warm-up the table is sized for the batch and grow never
// runs again, keeping the steady state allocation-free.
func (t *keyTable) grow() {
	old := t.slots
	t.slots = make([]ktSlot, len(old)*2)
	t.mask = uint64(len(t.slots)) - 1
	for i := range old {
		s := &old[i]
		if s.gen != t.gen {
			continue
		}
		j := mix(s.key) & t.mask
		for t.slots[j].gen == t.gen {
			j = (j + 1) & t.mask
		}
		t.slots[j] = *s
	}
}

// rowPool recycles dim-sized float32 rows. The step path draws per-key
// delta buffers from it at commit time; ownership follows the write path —
// the synchronous engines return buffers as soon as the host apply lands,
// while EngineFrugal's buffers travel through the P²F write set and come
// back from the flush sink after ApplyUpdates (the gate guarantees no
// reader needs them afterwards). Buffers are handed out dirty; consumers
// must fully overwrite them (tensor.CopyClear does). Safe for concurrent
// use: trainers Get while flusher threads Put.
type rowPool struct {
	mu   sync.Mutex
	dim  int
	free [][]float32
	// poison, when set (tests only, before the job runs), fills every
	// buffer handed out with NaN — any consumer that wrongly assumes
	// pooled buffers arrive zeroed poisons its parameters loudly instead
	// of training on silent garbage.
	poison bool
}

func newRowPool(dim int) *rowPool { return &rowPool{dim: dim} }

func (p *rowPool) Get() []float32 {
	p.mu.Lock()
	n := len(p.free)
	var buf []float32
	if n > 0 {
		buf = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if buf == nil {
		buf = make([]float32, p.dim)
	}
	if p.poison {
		nan := float32(math.NaN())
		for i := range buf {
			buf[i] = nan
		}
	}
	return buf
}

// Put returns one buffer to the pool. Foreign-sized buffers are dropped.
func (p *rowPool) Put(buf []float32) {
	if len(buf) != p.dim {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, buf)
	p.mu.Unlock()
}

// PutUpdates returns every delta buffer of a flushed write set under one
// lock acquisition (the flush-sink path).
func (p *rowPool) PutUpdates(updates []pq.Update) {
	p.mu.Lock()
	for i := range updates {
		if d := updates[i].Delta; len(d) == p.dim {
			p.free = append(p.free, d)
		}
	}
	p.mu.Unlock()
}
