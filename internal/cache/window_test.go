package cache

import "testing"

// A window-pinned slot is exempt from eviction: fill pressure against its
// set must pick other victims, and a fully window-pinned set rejects the
// fill (counted separately from epoch-pin rejects) rather than alias
// reserved storage.
func TestWindowPinBlocksEviction(t *testing.T) {
	c := MustNew(Ways, 4) // one set
	keys := keysInOneSet(c.Meta, 3*Ways)

	i, dst := c.InsertPrefetch(keys[0])
	if i < 0 {
		t.Fatal("InsertPrefetch rejected on an empty cache")
	}
	dst[0] = 42
	c.MarkPrefetched(i, 1)
	c.WindowPin(i)

	// Flood the set: every other way may be evicted, the pinned one not.
	for _, k := range keys[1:] {
		c.Insert(k, 1)
	}
	row, hit := c.Lookup(keys[0], 1)
	if !hit || row[0] != 42 {
		t.Fatalf("window-pinned row was evicted or rewritten (hit=%v)", hit)
	}

	c.WindowUnpin(i)
	for _, k := range keys[1:] {
		c.Insert(k, 2)
		c.Insert(k, 3)
	}
	if _, hit := c.Lookup(keys[0], 1); hit {
		t.Fatal("unpinned cold row survived sustained fill pressure")
	}
}

// Epoch pins and window pins composing to cover a full set: fill must
// reject (never alias pinned storage) and classify the reject as a
// window-pin reject when at least one blocker is purely window-pinned,
// as a plain pin reject when the epoch alone is responsible.
func TestEpochAndWindowPinsCoverFullSet(t *testing.T) {
	c := MustNew(Ways, 4) // one set
	keys := keysInOneSet(c.Meta, Ways+2)

	c.BeginEpoch()
	// Epoch-pin all but one way through demand inserts.
	var rows [][]float32
	for _, k := range keys[:Ways-1] {
		dst, _, _ := c.Insert(k, 1)
		if dst == nil {
			t.Fatalf("Insert(%d) rejected with free ways", k)
		}
		dst[0] = float32(k) + 0.5
		rows = append(rows, dst)
	}
	// Window-pin the last way through a prefetch fill (no epoch pin).
	pi, pdst := c.InsertPrefetch(keys[Ways-1])
	if pi < 0 {
		t.Fatal("InsertPrefetch rejected with a free way")
	}
	pdst[0] = -1
	c.MarkPrefetched(pi, 1)
	c.WindowPin(pi)

	// The set is now fully blocked: Ways-1 epoch pins + 1 window pin.
	if dst, _, _ := c.Insert(keys[Ways], 1); dst != nil {
		t.Fatal("Insert succeeded with every way epoch- or window-pinned")
	}
	if got := c.Stats().WindowPinRejects; got != 1 {
		t.Fatalf("WindowPinRejects = %d, want 1 (a window pin completed the blockade)", got)
	}
	if got := c.Stats().PinRejects; got != 0 {
		t.Fatalf("PinRejects = %d, want 0", got)
	}
	for i, r := range rows {
		if r[0] != float32(keys[i])+0.5 {
			t.Fatalf("epoch-pinned row %d was rewritten", i)
		}
	}
	if pdst[0] != -1 {
		t.Fatal("window-pinned row was rewritten")
	}

	// Next epoch releases the epoch pins but not the window pin: the fill
	// now finds victims again.
	c.BeginEpoch()
	dst, _, _ := c.Insert(keys[Ways], 1)
	if dst == nil {
		t.Fatal("Insert rejected after the epoch pins lapsed")
	}
	if &dst[0] == &pdst[0] {
		t.Fatal("fill aliased the still-window-pinned slot")
	}

	// An all-epoch blockade (no window pin involved) counts as PinRejects.
	c.BeginEpoch()
	for _, k := range keysInOneSet(c.Meta, Ways)[:Ways] {
		c.Lookup(k, 0) // touch to pin whatever is resident
		c.Insert(k, 2)
	}
	c.WindowUnpin(pi)
	before := c.Stats().PinRejects
	if dst, _, _ := c.Insert(keys[Ways+1], 1); dst != nil {
		t.Fatal("Insert succeeded with every way epoch-pinned")
	}
	if got := c.Stats().PinRejects; got != before+1 {
		t.Fatalf("PinRejects = %d, want %d", got, before+1)
	}
}

// The window refcount is slot-scoped: it survives stale invalidation, so
// the slot stays reserved until the batch that needed it retires — and a
// balanced unpin by index then releases it regardless of what key the
// directory shows.
func TestWindowPinSurvivesInvalidation(t *testing.T) {
	c := MustNew(Ways, 4) // one set
	keys := keysInOneSet(c.Meta, Ways+1)

	i, _ := c.InsertPrefetch(keys[0])
	c.MarkPrefetched(i, 1)
	c.WindowPin(i)

	// A stale lookup invalidates the entry; the reservation must hold.
	if _, hit := c.Lookup(keys[0], 2); hit {
		t.Fatal("stale lookup hit")
	}
	for _, k := range keys[1:Ways] {
		c.Insert(k, 1)
		c.Insert(k, 2)
	}
	if got := c.Stats().Evicted; got != 0 {
		// Ways-1 other keys fit the Ways-1 unreserved slots: with the
		// invalidated slot still reserved, refills never evict.
		t.Fatalf("evictions = %d with the only contested slot window-pinned", got)
	}

	c.WindowUnpin(i)
	if dst, _, _ := c.Insert(keys[Ways], 1); dst == nil {
		t.Fatal("Insert rejected after the window pin was released")
	}
}

// Prefetch fate accounting: used fills count as hits, refilled-before-use
// as late, evicted-before-use as wasted — and the ratio accessors never
// divide by zero.
func TestPrefetchFateAccounting(t *testing.T) {
	var zero Stats
	for name, v := range map[string]float64{
		"HitRatio":         zero.HitRatio(),
		"MissRate":         zero.MissRate(),
		"PrefetchHitRate":  zero.PrefetchHitRate(),
		"PrefetchAccuracy": zero.PrefetchAccuracy(),
	} {
		if v != 0 {
			t.Fatalf("%s on zero Stats = %v, want 0", name, v)
		}
	}

	c := MustNew(Ways, 4)
	keys := keysInOneSet(c.Meta, Ways+1)

	// Fill 1: used by a demand lookup → PrefetchHits.
	i, _ := c.InsertPrefetch(keys[0])
	c.MarkPrefetched(i, 1)
	if _, hit := c.Lookup(keys[0], 1); !hit {
		t.Fatal("demand lookup missed a prefetched row")
	}

	// Fill 2: goes stale before use → PrefetchLate.
	i2, _ := c.InsertPrefetch(keys[1])
	c.MarkPrefetched(i2, 1)
	if _, hit := c.Lookup(keys[1], 5); hit {
		t.Fatal("stale prefetched row was served")
	}

	// Fill 3: evicted before use → PrefetchWasted. Freeze every other way
	// with high frequency so the unused prefetch row is the LFU victim.
	i3, _ := c.InsertPrefetch(keys[2])
	c.MarkPrefetched(i3, 1)
	for _, k := range keys[3 : Ways+1] {
		dst, _, _ := c.Insert(k, 1)
		if dst == nil {
			t.Fatalf("Insert(%d) rejected", k)
		}
		for n := 0; n < 8; n++ {
			c.Lookup(k, 1)
		}
	}
	c.Lookup(keys[0], 1) // keep fill 1 warmer than fill 3
	evKey := keysInOneSet(c.Meta, 2*Ways)[2*Ways-1]
	if dst, _, _ := c.Insert(evKey, 1); dst == nil {
		t.Fatal("eviction insert rejected")
	}

	s := c.Stats()
	// PrefetchHits counts every demand lookup served from a prefetched row
	// (pf is sticky until refill/eviction), so fill 1's two lookups give 2.
	if s.PrefetchFills != 3 || s.PrefetchHits != 2 || s.PrefetchLate != 1 || s.PrefetchWasted != 1 {
		t.Fatalf("fills/hits/late/wasted = %d/%d/%d/%d, want 3/2/1/1",
			s.PrefetchFills, s.PrefetchHits, s.PrefetchLate, s.PrefetchWasted)
	}
	if acc := s.PrefetchAccuracy(); acc <= 0.3 || acc >= 0.4 {
		t.Fatalf("PrefetchAccuracy = %v, want 1/3", acc)
	}
	if s.PrefetchHitRate() <= 0 {
		t.Fatal("PrefetchHitRate = 0 after a served prefetch")
	}
}
