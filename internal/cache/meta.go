package cache

import (
	"fmt"
	"sync/atomic"

	"frugal/internal/obs"
)

// Meta is the bookkeeping half of the embedding cache: the set-associative
// directory with frequency-aware eviction and version-based freshness, but
// no row storage. The performance simulator uses it to track hit rates
// over key spaces far too large to materialise (CriteoTB's 882 M rows);
// Cache composes it with a row slab for the real runtime.
//
// The statistics counters are the only count of cache traffic; they are
// atomics so that Stats may run while the owning trainer probes (a live
// job Snapshot). Writers are already serialised — one trainer, or the
// prefetcher's lock — so the adds never contend.
type Meta struct {
	sets     int
	slots    []slot
	hits     atomic.Int64
	misses   atomic.Int64
	stale    atomic.Int64
	inserted atomic.Int64
	evicted  atomic.Int64
	// epoch implements slot pinning (see BeginEpoch). 0 means pinning is
	// disabled — the simulator's Meta-only users never call BeginEpoch and
	// keep the historical always-evictable behaviour.
	epoch uint64
	// pinRejects counts fill calls rejected because every unblocked slot of
	// the set was pinned by the current epoch; winPinRejects counts fills
	// where at least one slot was blocked purely by a window pin (the
	// lookahead prefetcher's reservation). The split tells capacity pressure
	// from this step's gathers apart from pressure from future batches.
	pinRejects    atomic.Int64
	winPinRejects atomic.Int64
	// Prefetch accounting: fills issued by the lookahead prefetcher, and
	// their fate — hit (served at least one demand lookup), late (went stale
	// before any use), wasted (evicted before any use).
	prefFills, prefHits, prefLate, prefWasted atomic.Int64
	// fillsSinceAge schedules frequency aging: every time it reaches the
	// directory capacity (one full turnover's worth of fills), every slot's
	// freq is halved. Without decay, frequencies only ever rise, so after a
	// distribution shift the stale-hot residents are effectively
	// unevictable — a new key enters with freq 1 and is always the next
	// victim, thrashing against its own working set. Deliberately separate
	// from the resettable `inserted` stat so ResetStats cannot perturb the
	// aging cadence.
	fillsSinceAge int64

	// tr receives the hit, miss and eviction trace events, tagged with
	// the owning trainer's gpu. nil (the default) is a no-op.
	tr  *obs.Tracer
	gpu int
}

// NewMeta builds a directory with room for at least `rows` entries.
func NewMeta(rows int) (*Meta, error) {
	if rows <= 0 {
		return nil, fmt.Errorf("cache: rows must be positive, got %d", rows)
	}
	sets := (rows + Ways - 1) / Ways
	m := &Meta{sets: sets, slots: make([]slot, sets*Ways)}
	for i := range m.slots {
		m.slots[i].key = emptyKey
	}
	return m, nil
}

// MustNewMeta is NewMeta for static configurations.
func MustNewMeta(rows int) *Meta {
	m, err := NewMeta(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the directory capacity in entries.
func (m *Meta) Rows() int { return m.sets * Ways }

// SetTracer attaches a step-event tracer (nil detaches) and the GPU id
// its events carry. Call before the cache sees traffic.
func (m *Meta) SetTracer(t *obs.Tracer, gpu int) {
	m.tr = t
	m.gpu = gpu
}

func (m *Meta) set(key uint64) int {
	h := key
	h ^= h >> 33
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 29
	return int(h % uint64(m.sets))
}

// BeginEpoch starts a new pinning epoch. The runtime calls it once per
// training step, before the gather phase: every slot the epoch touches
// (hit or fill) is pinned — exempt from eviction — until the next
// BeginEpoch, so the gather phase may hand out rows that alias cache
// storage without a later insert in the same step reusing them. Callers
// that never BeginEpoch (the simulator's Meta-only hit-rate tracking) get
// the historical always-evictable behaviour.
func (m *Meta) BeginEpoch() {
	m.epoch++
	if m.epoch == 0 { // uint64 wrap: re-arm rather than disable
		m.epoch = 1
		for i := range m.slots {
			m.slots[i].epoch = 0
		}
	}
}

// pinned reports whether slot storage may be aliased by the current epoch.
func (m *Meta) pinned(s *slot) bool {
	return m.epoch != 0 && s.epoch == m.epoch
}

// blocked reports whether a slot is exempt from eviction: pinned by the
// current epoch (its storage may be aliased by this step's gathers) or
// window-pinned (a batch inside the lookahead window still needs it).
func (m *Meta) blocked(s *slot) bool {
	return s.win > 0 || m.pinned(s)
}

// probe returns the slot index of a live, fresh entry for key, or -1.
// Present-but-stale entries are invalidated and counted; their slot keeps
// its pin (the storage may still be aliased by this epoch's earlier hits).
func (m *Meta) probe(key uint64, wantVersion uint64) int {
	base := m.set(key) * Ways
	for i := base; i < base+Ways; i++ {
		s := &m.slots[i]
		if s.key != key {
			continue
		}
		if s.version < wantVersion {
			s.key = emptyKey
			if s.pf && !s.pfUsed {
				// A prefetched row invalidated before any demand use: the
				// fill lost the race with a flush — late, not wasted.
				m.prefLate.Add(1)
			}
			s.pf = false
			m.stale.Add(1)
			m.misses.Add(1)
			m.tr.Emit(obs.EvCacheMiss, m.gpu, -1, key, 0)
			return -1
		}
		bumpFreq(s)
		s.epoch = m.epoch
		if s.pf {
			s.pfUsed = true
			m.prefHits.Add(1)
		}
		m.hits.Add(1)
		m.tr.Emit(obs.EvCacheHit, m.gpu, -1, key, 0)
		return i
	}
	m.misses.Add(1)
	m.tr.Emit(obs.EvCacheMiss, m.gpu, -1, key, 0)
	return -1
}

// Probe reports whether key is cached at a version ≥ wantVersion,
// updating hit/miss statistics.
func (m *Meta) Probe(key uint64, wantVersion uint64) bool {
	return m.probe(key, wantVersion) >= 0
}

// Contains reports presence at any version without touching statistics.
// No production path needs it: it is the tests' observation hook into the
// directory, where Probe would move the hit and frequency counters.
func (m *Meta) Contains(key uint64) bool {
	base := m.set(key) * Ways
	for i := base; i < base+Ways; i++ {
		if m.slots[i].key == key {
			return true
		}
	}
	return false
}

// fill claims a slot for key at version, evicting the least-frequently
// used entry of the set when necessary, and returns the slot index plus
// eviction info. Slots pinned by the current epoch — including
// invalidated-but-pinned ones, whose storage may still be aliased — and
// window-pinned slots (needed by a batch inside the lookahead window) are
// never chosen; when the whole set is blocked, fill returns slotIdx -1 and
// the caller must fall back to private scratch storage. prefetch marks a
// fill issued by the lookahead prefetcher: the claimed slot is tagged pf
// and NOT epoch-pinned (the prefetcher hands out no aliases; window pins
// are its protection).
func (m *Meta) fill(key uint64, version uint64, prefetch bool) (slotIdx int, evicted uint64, wasEviction bool) {
	base := m.set(key) * Ways
	victim := -1
	var victimFreq uint32 = ^uint32(0)
	winBlocked := false
	for i := base; i < base+Ways; i++ {
		s := &m.slots[i]
		if s.key == key {
			s.version = version
			bumpFreq(s)
			if !prefetch {
				s.epoch = m.epoch
			}
			return i, 0, false
		}
		if m.blocked(s) {
			if s.win > 0 && !m.pinned(s) {
				winBlocked = true
			}
			continue // storage aliased by this epoch's gathers, or reserved by the window
		}
		if s.key == emptyKey {
			if victim == -1 || m.slots[victim].key != emptyKey {
				victim = i
				victimFreq = 0
			}
			continue
		}
		if victim != -1 && m.slots[victim].key == emptyKey {
			continue // prefer empty slots over any eviction
		}
		if victim == -1 || s.freq < victimFreq {
			victim = i
			victimFreq = s.freq
		}
	}
	if victim == -1 {
		if winBlocked {
			m.winPinRejects.Add(1)
		} else {
			m.pinRejects.Add(1)
		}
		return -1, 0, false
	}
	s := &m.slots[victim]
	wasEviction = s.key != emptyKey
	evicted = s.key
	if wasEviction && s.pf && !s.pfUsed {
		// A prefetched row evicted before any demand use: a wasted fill.
		m.prefWasted.Add(1)
	}
	s.key = key
	s.version = version
	s.freq = 1
	if prefetch {
		s.epoch = 0
	} else {
		s.epoch = m.epoch
	}
	// A freshly claimed slot is not (yet) a prefetched row: the prefetch
	// path sets pf via MarkPrefetched once the bytes have been copied.
	s.pf = false
	s.pfUsed = false
	m.inserted.Add(1)
	if wasEviction {
		m.evicted.Add(1)
		m.tr.Emit(obs.EvCacheEvict, m.gpu, -1, evicted, 0)
	}
	if m.fillsSinceAge++; m.fillsSinceAge >= int64(len(m.slots)) {
		m.fillsSinceAge = 0
		m.age()
	}
	return victim, evicted, wasEviction
}

// bumpFreq is the saturating frequency increment: a counter that wrapped
// to 0 would turn the hottest slot of its set into the next eviction
// victim, so the top value sticks (aging halves it back into range).
func bumpFreq(s *slot) {
	if s.freq != ^uint32(0) {
		s.freq++
	}
}

// age halves every slot's frequency — the periodic decay that lets a
// post-shift working set outcompete stale-hot residents. Scheduled by
// fill after every capacity's worth of inserts, so the amortised cost is
// O(1) per insert and a static workload (no fills) never pays it; the
// relative LFU order within a set is preserved across a pass.
func (m *Meta) age() {
	for i := range m.slots {
		m.slots[i].freq >>= 1
	}
}

// Fill records key at version (the slab-less insert used by the
// simulator). It returns the evicted key, if any. With every slot of the
// set pinned (possible only after BeginEpoch) the fill is dropped.
func (m *Meta) Fill(key uint64, version uint64) (evicted uint64, wasEviction bool) {
	_, ev, was := m.fill(key, version, false)
	return ev, was
}

// ----------------------------------------------------------------------
// Lookahead-prefetch surface (window pinning). All methods are
// single-threaded like the rest of Meta; the runtime serialises the
// prefetch stage against the gather/apply phases with its own lock.

// PeekSlot locates key's slot without touching the hit/miss statistics —
// the prefetcher's probe, which must not pollute demand-miss accounting.
// Returns the slot index, or -1 when the key is not resident (any version).
func (m *Meta) PeekSlot(key uint64) int {
	base := m.set(key) * Ways
	for i := base; i < base+Ways; i++ {
		if m.slots[i].key == key {
			return i
		}
	}
	return -1
}

// SlotVersion returns the version tag of a slot located by PeekSlot.
func (m *Meta) SlotVersion(i int) uint64 { return m.slots[i].version }

// SlotEpochPinned reports whether the slot's storage may be aliased by the
// current epoch's gathers — if so, the prefetcher must not rewrite its
// bytes in place.
func (m *Meta) SlotEpochPinned(i int) bool { return m.pinned(&m.slots[i]) }

// WindowPin increments the slot's window refcount: one more batch inside
// the lookahead window needs it. While the count is nonzero the slot is
// exempt from eviction.
func (m *Meta) WindowPin(i int) { m.slots[i].win++ }

// WindowUnpin decrements the slot's window refcount (a batch that needed
// the slot has retired). Pin/unpin calls are balanced by the prefetcher's
// per-batch pin ring, so the count cannot underflow; the guard keeps a
// bookkeeping bug from turning into a permanently pinned set.
func (m *Meta) WindowUnpin(i int) {
	if s := &m.slots[i]; s.win > 0 {
		s.win--
	}
}

// MarkPrefetched records a prefetch fill (or in-place refill) of slot i at
// the given version: the version was read before the row bytes were
// copied from the host slab under its row lock, and the slab bumps a
// version only after the write, so the tag is never ahead of the content
// (it may trail it, which costs a refill, never a stale read). A previous
// unused prefetch fill of the same slot counts as late (its bytes were
// refreshed before any use, so the earlier read bought nothing).
func (m *Meta) MarkPrefetched(i int, version uint64) {
	s := &m.slots[i]
	if s.pf && !s.pfUsed {
		m.prefLate.Add(1)
	}
	s.version = version
	s.pf = true
	s.pfUsed = false
	m.prefFills.Add(1)
}

// Bump updates the stored version of a cached key; reports presence.
func (m *Meta) Bump(key uint64, version uint64) bool {
	base := m.set(key) * Ways
	for i := base; i < base+Ways; i++ {
		if m.slots[i].key == key {
			m.slots[i].version = version
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the counters. Safe to call while the
// owner probes; each counter is read once, so a live snapshot may pair a
// hit count with a miss count a few probes apart.
func (m *Meta) Stats() Stats {
	return Stats{Hits: m.hits.Load(), Misses: m.misses.Load(), StaleHits: m.stale.Load(),
		Inserted: m.inserted.Load(), Evicted: m.evicted.Load(),
		PrefetchFills: m.prefFills.Load(), PrefetchHits: m.prefHits.Load(),
		PrefetchLate: m.prefLate.Load(), PrefetchWasted: m.prefWasted.Load(),
		PinRejects: m.pinRejects.Load(), WindowPinRejects: m.winPinRejects.Load()}
}

// ResetStats clears the counters.
func (m *Meta) ResetStats() {
	for _, c := range []*atomic.Int64{&m.hits, &m.misses, &m.stale, &m.inserted, &m.evicted,
		&m.prefFills, &m.prefHits, &m.prefLate, &m.prefWasted,
		&m.pinRejects, &m.winPinRejects} {
		c.Store(0)
	}
}
