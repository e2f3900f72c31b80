// Package cache implements the per-GPU embedding cache used by Frugal and
// the HugeCTR-style baseline (§2.1, Fig 2b): a set-associative,
// frequency-aware table of hot embedding rows held in (simulated) device
// memory.
//
// Frugal uses a sharding placement — key k is cached only on its owner GPU
// — and keeps the cache consistent with host memory through versioning:
// every flushed update bumps the key's global version, and a cached row
// whose fill version is older counts as a miss, falling back to the
// (gate-protected, therefore fresh) host row. DESIGN.md records this as
// our completion of the paper's design for remote partial gradients.
//
// The package has two layers: Meta (the directory — all placement,
// eviction, versioning and statistics logic, no storage) and Cache (Meta
// plus the float32 row slab). Neither is safe for concurrent use; device
// caches in the paper are private per training process too.
package cache

import "fmt"

// Ways is the set associativity of the cache.
const Ways = 8

const emptyKey = ^uint64(0)

type slot struct {
	key     uint64
	version uint64
	freq    uint32
	// win is the window-pin refcount: how many batches inside the lookahead
	// window still need this slot (BagPipe's oracle-cache invariant). While
	// win > 0 the slot is exempt from eviction, exactly like an epoch pin.
	// The count is slot-scoped, not key-scoped: it survives invalidation, and
	// the prefetcher unpins by slot index, so a stale-invalidated slot cannot
	// leak its reservation.
	win uint32
	// epoch is the Meta epoch in which this slot was last touched (hit,
	// filled, or bumped). While it equals the current epoch the slot is
	// *pinned*: fill will not reuse its storage, so rows handed out during
	// the epoch stay valid. Slots keep their epoch even when invalidated —
	// the row storage may still be aliased by an earlier gather this step.
	epoch uint64
	// pf marks a row whose bytes were filled by the lookahead prefetcher;
	// pfUsed marks that at least one demand lookup has been served from it.
	// Together they classify every prefetch fill as hit (used), late (went
	// stale before use) or wasted (evicted before use).
	pf, pfUsed bool
}

// Cache is one GPU's embedding cache: a Meta directory plus row storage
// for `Rows()` embeddings of dimension dim in a contiguous slab.
type Cache struct {
	*Meta
	dim  int
	slab []float32
}

// New builds a cache with room for at least `rows` embedding rows of
// dimension dim. rows is rounded up to a multiple of the associativity; a
// rows value < Ways still yields one full set.
func New(rows, dim int) (*Cache, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("cache: dim must be positive, got %d", dim)
	}
	meta, err := NewMeta(rows)
	if err != nil {
		return nil, err
	}
	return &Cache{
		Meta: meta,
		dim:  dim,
		slab: make([]float32, meta.Rows()*dim),
	}, nil
}

// MustNew is New for static configurations.
func MustNew(rows, dim int) *Cache {
	c, err := New(rows, dim)
	if err != nil {
		panic(err)
	}
	return c
}

// Dim returns the embedding dimension.
func (c *Cache) Dim() int { return c.dim }

func (c *Cache) row(slotIdx int) []float32 {
	return c.slab[slotIdx*c.dim : (slotIdx+1)*c.dim]
}

// Lookup returns the cached row for key when present AND at least as new
// as wantVersion. A present-but-stale row counts as a miss (and is
// invalidated) because host memory holds newer flushed updates.
// The returned slice aliases cache storage; callers may mutate it in place
// (that is how local updates are applied). Without epoch pinning it must
// not be retained across a subsequent Insert, which may reuse the slot;
// under BeginEpoch the hit pins the slot, so the row stays valid until the
// next epoch — the runtime's gather phase relies on this to hand the slab
// row to the compute phase without a copy.
func (c *Cache) Lookup(key uint64, wantVersion uint64) ([]float32, bool) {
	i := c.probe(key, wantVersion)
	if i < 0 {
		return nil, false
	}
	return c.row(i), true
}

// Insert fills the row for key at the given version, evicting the
// least-frequently-used slot of the set when full (HugeCTR-style
// frequency admission). It returns the slice the caller must copy the row
// into, plus the evicted key (or wasEviction=false when no eviction
// happened). With epoch pinning active, a set whose slots are all pinned
// by the current epoch rejects the insert with dst == nil; the caller must
// fall back to private storage for this access.
func (c *Cache) Insert(key uint64, version uint64) (dst []float32, evicted uint64, wasEviction bool) {
	i, ev, was := c.fill(key, version, false)
	if i < 0 {
		return nil, 0, false
	}
	return c.row(i), ev, was
}

// InsertPrefetch claims a slot for key on behalf of the lookahead
// prefetcher and returns the slot index plus the destination row, or
// (-1, nil) when every eligible slot of the set is blocked (epoch- or
// window-pinned) — the reject is counted and the prefetcher simply skips
// the key, leaving it to demand fill. Unlike Insert, the claimed slot is
// not epoch-pinned: the prefetcher hands out no aliases, and the window
// pin the caller takes at claim is what protects the row. The caller
// must call MarkPrefetched with a version read before the row bytes it
// copies into dst, and copy them before any other directory access.
func (c *Cache) InsertPrefetch(key uint64) (slotIdx int, dst []float32) {
	i, _, _ := c.fill(key, 0, true)
	if i < 0 {
		return -1, nil
	}
	return i, c.row(i)
}

// SlotRow returns the storage of a slot located by PeekSlot. The
// prefetcher uses it to refill a stale resident row in place (only when
// the slot is not epoch-pinned, so no live gather aliases the bytes).
func (c *Cache) SlotRow(slotIdx int) []float32 { return c.row(slotIdx) }

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits, Misses, StaleHits, Inserted, Evicted int64
	// Lookahead-prefetch counters. PrefetchFills is rows filled by the
	// prefetcher; PrefetchHits is demand lookups served from a prefetched
	// row; PrefetchLate is prefetched rows invalidated or refilled before
	// any use; PrefetchWasted is prefetched rows evicted before any use.
	PrefetchFills, PrefetchHits, PrefetchLate, PrefetchWasted int64
	// PinRejects / WindowPinRejects split fill rejections by blocker kind:
	// the current epoch's own pins vs. lookahead-window reservations.
	PinRejects, WindowPinRejects int64
}

// HitRatio returns hits/(hits+misses), or 0 before any access.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// MissRate returns misses/(hits+misses), or 0 before any access — the
// guard keeps /debug/vars from emitting NaN before the first step.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// PrefetchHitRate returns the share of demand lookups served from
// prefetched rows, hits_prefetched/(hits+misses); 0 before any access.
func (s Stats) PrefetchHitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(total)
}

// PrefetchAccuracy returns the share of prefetch fills that served at
// least one demand lookup before going stale or being evicted; 0 before
// any fill.
func (s Stats) PrefetchAccuracy() float64 {
	if s.PrefetchFills == 0 {
		return 0
	}
	used := s.PrefetchFills - s.PrefetchLate - s.PrefetchWasted
	if used < 0 {
		used = 0
	}
	return float64(used) / float64(s.PrefetchFills)
}
