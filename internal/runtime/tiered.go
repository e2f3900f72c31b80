package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"frugal/internal/obs"
	"frugal/internal/tensor"
)

// The frequency-aware tiered slab (ROADMAP: frequency-aware tiering /
// MixCache-style capacity multiplication). The Zipf skew of embedding
// access means most rows are touched rarely: the hot head earns
// full-precision float32 storage in a small slot pool, while the cold
// tail lives as per-row affine int8 (see internal/tensor/quant.go) at a
// quarter of the bytes. Reads dequantize; writes requantize; promotion
// and demotion ride the P²F flush boundary (Host.TierMaintain, called
// by the flusher sink), driven by decayed per-row access frequencies.
//
// Consistency: a row's storage tier is invisible to the gate. Tier
// moves copy content between representations without bumping the row
// version — versions still count applied updates and only ever grow —
// so the cache-freshness inequality (cached version ≥ flushed version ⇒
// fresh) holds across moves. The price of mobility is that direct
// (lock-free) reads are no longer safe when tiering is on: a demotion
// rewrites a row's authoritative bytes, so ReadRowDirect degrades to a
// locked read on a tiered host (the gate's no-pending-writes guarantee
// covers flusher writes, not tier moves).
const (
	// promoteFreq is the decayed access frequency at which a cold row
	// becomes a promotion candidate.
	promoteFreq = 3
	// tierSweepLen bounds the clock sweep that picks a demotion victim:
	// at most this many hot slots are examined per promotion.
	tierSweepLen = 16
	// freqCap saturates the per-row frequency counter.
	freqCap = 255
	// freqShiftCap bounds the lazy aging shift: after 8 unseen epochs a
	// counter has decayed to zero anyway.
	freqShiftCap = 8
)

// coldTier is the quantized half of a tiered Host. Locking discipline:
//   - tier[key] is atomic: readers load it under the key's stripe lock
//     (or with the slab quiescent); it is only stored while holding BOTH
//     mu and the key's stripe lock.
//   - q/qscale/qzero[key] and the hot slot a row owns are guarded by the
//     key's stripe lock, exactly like the untiered slab's row bytes.
//   - The slot free list, clock hand and owner map are guarded by mu.
//     Lock order is mu → stripe; no path acquires mu while holding a
//     stripe lock, and no two stripe locks are ever held together.
type coldTier struct {
	dim    int
	hotCap int

	tier   []atomic.Int32 // 0 = cold; n > 0 = hot, in slot n−1
	q      []int8         // rows×dim int8 codes (authoritative when cold)
	qscale []float32      // per-row quantization scale
	qzero  []float32      // per-row zero point

	hotSlab []float32 // hotCap×dim full-precision rows

	mu    sync.Mutex
	free  []int32  // unowned hot slots
	clock int      // demotion sweep hand over [0, hotCap)
	owner []uint64 // slot → owning row (valid when not on free)

	// freq packs a lazily-aged access counter per row:
	// (epoch byte << 8) | count. Bumps decay the stored count by the
	// epoch delta before incrementing, so frequencies fade without a
	// global sweep. Best-effort CAS: a lost race loses one count, which
	// a heuristic tolerates.
	freq     []atomic.Uint32
	epoch    atomic.Uint32
	accesses atomic.Int64
	// agePeriod is how many bumps advance the aging epoch (≈ one
	// turnover of the row space).
	agePeriod int64

	// scratch is a lazily-allocated per-stripe dequantization row for
	// read-modify-write on cold rows; index and contents are guarded by
	// that stripe's lock.
	scratch [lockStripes][]float32

	promotions, demotions, declined atomic.Int64
	coldWrites, dequantReads        atomic.Int64

	onMove func(key uint64) // tier-move hook (ckpt dirtiness); set before training
	obs    *obs.TierObs
}

// NewTieredHost allocates a host whose cold tail is quantized: the first
// hotFraction of the ID space starts hot (full-precision slots) and the
// rest cold, with promotion/demotion adapting the split to the access
// distribution once training runs. hotFraction must be in (0, 1].
func NewTieredHost(rows int64, dim int, hotFraction float64) (*Host, error) {
	if hotFraction <= 0 || hotFraction > 1 {
		return nil, fmt.Errorf("runtime: hot fraction must be in (0, 1], got %g", hotFraction)
	}
	hotCap := int(float64(rows) * hotFraction)
	if hotCap < 1 {
		hotCap = 1
	}
	if int64(hotCap) > rows {
		hotCap = int(rows)
	}
	return newTieredHost(rows, dim, hotCap)
}

// newTieredHost builds a tiered host with an exact hot-slot capacity —
// the checkpoint loader uses it to reproduce a saved host's split
// without hotFraction rounding drift.
func newTieredHost(rows int64, dim int, hotCap int) (*Host, error) {
	if err := checkShape(rows, dim); err != nil {
		return nil, err
	}
	if hotCap < 1 || int64(hotCap) > rows {
		return nil, fmt.Errorf("runtime: hot capacity %d outside [1, %d]", hotCap, rows)
	}
	t := &coldTier{
		dim:       dim,
		hotCap:    hotCap,
		tier:      make([]atomic.Int32, rows),
		q:         make([]int8, rows*int64(dim)),
		qscale:    make([]float32, rows),
		qzero:     make([]float32, rows),
		hotSlab:   make([]float32, int64(hotCap)*int64(dim)),
		owner:     make([]uint64, hotCap),
		freq:      make([]atomic.Uint32, rows),
		agePeriod: rows,
	}
	// The head of the ID space starts hot, slot i ← row i.
	for i := 0; i < hotCap; i++ {
		t.tier[i].Store(int32(i) + 1)
		t.owner[i] = uint64(i)
	}
	return &Host{
		rows:     rows,
		dim:      dim,
		tier:     t,
		versions: make([]atomic.Uint64, rows),
		locks:    make([]sync.Mutex, lockStripes),
	}, nil
}

// Tiered reports whether the cold tier is enabled.
func (h *Host) Tiered() bool { return h.tier != nil }

// SetTierMoveHook installs a callback invoked with the key of every row
// whose tier (and therefore authoritative byte representation) changes.
// The delta-checkpoint writer registers its dirty-mark here: a demotion
// requantizes a row without bumping its version, and without the hook
// the final log sweep would miss the new bytes and reconstruct a stale
// image. Must be set before training starts; called with the tier mutex
// and the row's stripe lock held, so it must stay cheap and never
// re-enter the Host.
func (h *Host) SetTierMoveHook(fn func(key uint64)) {
	if h.tier != nil {
		h.tier.onMove = fn
	}
}

// SetTierObserver attaches the tier counters' observability sink (nil
// detaches). Call before traffic.
func (h *Host) SetTierObserver(o *obs.TierObs) {
	if h.tier != nil {
		h.tier.obs = o
	}
}

// TierStats is a point-in-time snapshot of tier movement and cold-path
// traffic.
type TierStats struct {
	HotRows      int64 `json:"hotRows"`      // rows currently full-precision
	Promotions   int64 `json:"promotions"`   // cold → hot moves
	Demotions    int64 `json:"demotions"`    // hot → cold moves (requantized)
	Declined     int64 `json:"declined"`     // promotions dropped: no colder victim
	ColdWrites   int64 `json:"coldWrites"`   // read-modify-requantize applies
	DequantReads int64 `json:"dequantReads"` // row reads served by dequantization
}

// TierStats snapshots the tier counters (zero value on untiered hosts).
// Production reads the same counters through the obs layer; this is the
// observation hook for tests in other packages (ckpt, serve) that must
// see tier movement on a bare Host.
func (h *Host) TierStats() TierStats {
	t := h.tier
	if t == nil {
		return TierStats{}
	}
	t.mu.Lock()
	hot := int64(t.hotCap - len(t.free))
	t.mu.Unlock()
	return TierStats{
		HotRows:      hot,
		Promotions:   t.promotions.Load(),
		Demotions:    t.demotions.Load(),
		Declined:     t.declined.Load(),
		ColdWrites:   t.coldWrites.Load(),
		DequantReads: t.dequantReads.Load(),
	}
}

// resetCold empties the hot pool: every row cold, every slot free (in
// ascending pop order). Checkpoint-load only — the caller guarantees
// quiescence, and immediately reassigns slots from the file's tier tags.
func (t *coldTier) resetCold() {
	for i := range t.tier {
		t.tier[i].Store(0)
	}
	t.free = t.free[:0]
	for s := t.hotCap - 1; s >= 0; s-- {
		t.free = append(t.free, int32(s))
	}
	t.clock = 0
}

// place installs an image decoded by a checkpoint load, after
// resetCold. A cold image's codes already sit in the key's code row, so
// only its scale and zero are stored; a hot one takes the next free
// slot, or quantizes into the code row when the pool is full.
func (t *coldTier) place(key uint64, img *RowImage) {
	switch {
	case img.Cold:
		t.qscale[key], t.qzero[key] = img.Scale, img.Zero
	case len(t.free) > 0:
		slot := t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		copy(t.slotRow(slot), img.Row)
		t.tier[key].Store(slot + 1)
		t.owner[slot] = key
	default:
		t.qscale[key], t.qzero[key] = tensor.QuantizeRow(img.Row, t.qrow(key))
	}
}

// qrow returns the key's code row.
func (t *coldTier) qrow(key uint64) []int8 {
	i := int64(key) * int64(t.dim)
	return t.q[i : i+int64(t.dim)]
}

// slotRow returns a hot slot's storage.
func (t *coldTier) slotRow(slot int32) []float32 {
	i := int64(slot) * int64(t.dim)
	return t.hotSlab[i : i+int64(t.dim)]
}

// stripeScratch returns the stripe's dequantization row, allocating it
// on first use. Caller holds the stripe lock.
func (t *coldTier) stripeScratch(key uint64) []float32 {
	s := t.scratch[key%lockStripes]
	if s == nil {
		s = make([]float32, t.dim)
		t.scratch[key%lockStripes] = s
	}
	return s
}

// readRow copies the row into dst, dequantizing when cold. Caller holds
// the stripe lock or guarantees quiescence.
func (t *coldTier) readRow(key uint64, dst []float32) {
	if slot := t.tier[key].Load(); slot > 0 {
		tensor.Copy(dst, t.slotRow(slot-1))
		return
	}
	tensor.DequantizeRow(t.qrow(key), t.qscale[key], t.qzero[key], dst)
	t.dequantReads.Add(1)
	t.obs.DequantRead(key)
}

// writeRow replaces the row's content in its current tier, requantizing
// when cold. Caller holds the stripe lock (or is single-threaded init).
func (t *coldTier) writeRow(key uint64, src []float32) {
	if slot := t.tier[key].Load(); slot > 0 {
		tensor.Copy(t.slotRow(slot-1), src)
		return
	}
	t.qscale[key], t.qzero[key] = tensor.QuantizeRow(src, t.qrow(key))
}

// score returns query · row without materializing cold rows. Caller
// holds the stripe lock or guarantees quiescence.
func (t *coldTier) score(query []float32, key uint64) float32 {
	if slot := t.tier[key].Load(); slot > 0 {
		return tensor.Dot(query, t.slotRow(slot-1))
	}
	return tensor.DotQ8(query, t.qrow(key), t.qscale[key], t.qzero[key])
}

// bump records an access of weight w and returns the row's decayed
// frequency. Lazy aging: the stored count is right-shifted by the
// number of epochs since it was last touched, then incremented.
func (t *coldTier) bump(key uint64, w uint32) uint32 {
	if t.accesses.Add(1)%t.agePeriod == 0 {
		t.epoch.Add(1)
	}
	e := t.epoch.Load() & 0xff
	old := t.freq[key].Load()
	f := decayCount(old, e)
	if f += w; f > freqCap {
		f = freqCap
	}
	// Best-effort: a lost race drops one bump, which the heuristic
	// tolerates; never loop under write contention.
	t.freq[key].CompareAndSwap(old, e<<8|f)
	return f
}

// decayedFreq reads the row's frequency as of the current epoch without
// recording an access.
func (t *coldTier) decayedFreq(key uint64) uint32 {
	return decayCount(t.freq[key].Load(), t.epoch.Load()&0xff)
}

// decayCount ages a packed (epoch<<8 | count) word to epoch e.
func decayCount(packed, e uint32) uint32 {
	shift := (e - packed>>8) & 0xff
	if shift > freqShiftCap {
		shift = freqShiftCap
	}
	return (packed & 0xff) >> shift
}

// TierMaintain records a flush-boundary access to key and, when the
// row's decayed frequency crosses the promotion threshold, moves it
// into the hot pool — demoting the coldest clock-sweep victim to make
// room. deferred marks a flush with no reader waiting inside the
// lookahead window (the P²F ∞-slot), which counts half: urgency is
// evidence of heat. No-op on untiered hosts. Never called with a stripe
// lock held.
func (h *Host) TierMaintain(key uint64, deferred bool) {
	t := h.tier
	if t == nil {
		return
	}
	w := uint32(2)
	if deferred {
		w = 1
	}
	f := t.bump(key, w)
	if f < promoteFreq || t.tier[key].Load() > 0 {
		return
	}
	t.promote(h, key, f)
}

// promote moves key into the hot pool if a slot is free or a strictly
// colder victim exists. Takes mu, then — one at a time — the victim's
// and the key's stripe locks.
func (t *coldTier) promote(h *Host, key uint64, f uint32) {
	t.mu.Lock()
	if t.tier[key].Load() > 0 { // raced with another maintainer
		t.mu.Unlock()
		return
	}
	var slot int32 = -1
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else if victim := t.sweepVictim(f); victim >= 0 {
		t.demoteLocked(h, victim)
		slot = victim
	}
	if slot < 0 {
		t.mu.Unlock()
		t.declined.Add(1)
		t.obs.TierDeclined(key)
		return
	}
	l := h.lock(key)
	l.Lock()
	tensor.DequantizeRow(t.qrow(key), t.qscale[key], t.qzero[key], t.slotRow(slot))
	t.tier[key].Store(slot + 1)
	if t.onMove != nil {
		t.onMove(key)
	}
	l.Unlock()
	t.owner[slot] = key
	t.mu.Unlock()
	t.promotions.Add(1)
	t.obs.TierPromotion(key)
}

// sweepVictim advances the clock hand over the hot pool and returns the
// slot of the coldest row seen whose decayed frequency is strictly
// below f, or -1. Caller holds mu; every examined slot is owned (the
// free list was empty).
func (t *coldTier) sweepVictim(f uint32) int32 {
	n := t.hotCap
	if n == 0 {
		return -1
	}
	sweep := tierSweepLen
	if sweep > n {
		sweep = n
	}
	best, bestFreq := int32(-1), f
	for i := 0; i < sweep; i++ {
		slot := t.clock
		t.clock = (t.clock + 1) % n
		if vf := t.decayedFreq(t.owner[slot]); vf < bestFreq {
			best, bestFreq = int32(slot), vf
		}
	}
	return best
}

// demoteLocked requantizes the slot's owner back into the cold tier and
// releases the slot. Caller holds mu; takes the victim's stripe lock.
func (t *coldTier) demoteLocked(h *Host, slot int32) {
	vk := t.owner[slot]
	l := h.lock(vk)
	l.Lock()
	t.qscale[vk], t.qzero[vk] = tensor.QuantizeRow(t.slotRow(slot), t.qrow(vk))
	t.tier[vk].Store(0)
	if t.onMove != nil {
		t.onMove(vk)
	}
	l.Unlock()
	t.demotions.Add(1)
	t.obs.TierDemotion(vk)
}

// mutableRow returns a float32 view the caller may accumulate into:
// the slot storage itself for a hot row, or the stripe scratch holding
// the dequantized image for a cold one. The caller applies its deltas
// and then calls commitRow — the "dequantize on read, requantize on
// flush" write path. Caller holds the stripe lock throughout.
func (t *coldTier) mutableRow(key uint64) (row []float32, cold bool) {
	if slot := t.tier[key].Load(); slot > 0 {
		return t.slotRow(slot - 1), false
	}
	s := t.stripeScratch(key)
	tensor.DequantizeRow(t.qrow(key), t.qscale[key], t.qzero[key], s)
	return s, true
}

// commitRow completes a mutableRow write: cold rows requantize back
// into their codes; hot rows were updated in place. Caller still holds
// the stripe lock.
func (t *coldTier) commitRow(key uint64, row []float32, cold bool) {
	if !cold {
		return
	}
	t.qscale[key], t.qzero[key] = tensor.QuantizeRow(row, t.qrow(key))
	t.coldWrites.Add(1)
	t.obs.ColdWrite(key)
}

// RowImage is a tier-tagged row capture: the full-precision image for a
// hot (or untiered) row, or the verbatim (codes, scale, zero) triple
// for a cold one. AppendImage and ReadImage are its one on-disk codec,
// shared by checkpoint bodies and delta-log records; cold rows cross it
// without a dequantize→requantize round trip, which is what makes
// reconstruction bit-identical.
type RowImage struct {
	Version uint64
	State   float32
	Cold    bool
	Scale   float32
	Zero    float32
	Row     []float32 // hot payload; always len Dim() (dequantized view when Cold)
	Q       []int8    // cold payload; len Dim() when Cold, unused otherwise
}

// CaptureRow snapshots the row into img in one critical section. Both
// payload slices must be pre-sized to Dim(); Row is always filled (cold
// rows are dequantized into it for consumers that need float32), and Q,
// Scale, Zero carry the verbatim cold representation when Cold.
func (h *Host) CaptureRow(key uint64, img *RowImage) {
	l := h.lock(key)
	l.Lock()
	img.Version = h.versions[key].Load()
	img.State = 0
	if h.state != nil {
		img.State = h.state[key]
	}
	t := h.tier
	if t == nil {
		img.Cold = false
		tensor.Copy(img.Row, h.row(key))
		l.Unlock()
		return
	}
	if slot := t.tier[key].Load(); slot > 0 {
		img.Cold = false
		tensor.Copy(img.Row, t.slotRow(slot-1))
		l.Unlock()
		return
	}
	img.Cold = true
	img.Scale, img.Zero = t.qscale[key], t.qzero[key]
	copy(img.Q, t.qrow(key))
	tensor.DequantizeRow(img.Q, img.Scale, img.Zero, img.Row)
	l.Unlock()
}

// RestoreRow is the tier-aware SetRow: it installs a captured image at
// its version (idempotent, last-writer-wins like SetRow) in the image's
// tier. A cold image lands verbatim — codes, scale and zero untouched —
// so replaying a log reproduces the primary's bytes exactly; restoring
// it onto an untiered host dequantizes into the slab instead. A tier
// mismatch (hot image onto a currently-cold row or vice versa) moves
// the row, evicting a clock victim when the hot pool is full.
func (h *Host) RestoreRow(key uint64, img *RowImage) {
	t := h.tier
	if t == nil {
		h.SetRow(key, img.Row, img.Version, img.State)
		return
	}
	if h.versions[key].Load() > img.Version {
		return // a newer image already landed; don't move the tier either
	}
	if !img.Cold {
		// Hot image: make sure the row owns a slot, then overwrite. The
		// saturated frequency makes restored-hot rows sticky: replaying a
		// log samples each row's tier at a slightly different instant, so
		// the pool can transiently hold more hot-tagged rows than slots —
		// the sweep must then evict a stale resident (frequency 0 in a
		// replay shadow), never a row the log already placed.
		t.freq[key].Store((t.epoch.Load()&0xff)<<8 | freqCap)
		if t.tier[key].Load() == 0 {
			t.forcePromote(h, key)
		}
		h.SetRow(key, img.Row, img.Version, img.State)
		return
	}
	// Cold image: demote first if needed, then install verbatim.
	t.mu.Lock()
	if slot := t.tier[key].Load(); slot > 0 {
		t.demoteLocked(h, slot-1)
		t.free = append(t.free, slot-1)
	}
	t.mu.Unlock()
	l := h.lock(key)
	l.Lock()
	if h.versions[key].Load() <= img.Version {
		copy(t.qrow(key), img.Q)
		t.qscale[key], t.qzero[key] = img.Scale, img.Zero
		if h.state != nil {
			h.state[key] = img.State
		}
		h.versions[key].Store(img.Version)
	}
	l.Unlock()
}

// forcePromote gives key a hot slot unconditionally (replica replay of
// a hot-tagged record), demoting the coldest swept victim when the pool
// is full.
func (t *coldTier) forcePromote(h *Host, key uint64) {
	t.mu.Lock()
	if t.tier[key].Load() > 0 {
		t.mu.Unlock()
		return
	}
	var slot int32 = -1
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else if slot = t.sweepVictim(^uint32(0)); slot >= 0 {
		t.demoteLocked(h, slot)
	}
	if slot < 0 { // hotCap == 0 cannot happen (≥ 1), defensive
		t.mu.Unlock()
		return
	}
	l := h.lock(key)
	l.Lock()
	tensor.DequantizeRow(t.qrow(key), t.qscale[key], t.qzero[key], t.slotRow(slot))
	t.tier[key].Store(slot + 1)
	if t.onMove != nil {
		t.onMove(key)
	}
	l.Unlock()
	t.owner[slot] = key
	t.mu.Unlock()
	t.promotions.Add(1)
	t.obs.TierPromotion(key)
}
