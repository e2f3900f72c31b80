package cache

import "testing"

// keysInOneSet returns n distinct keys that all map to the same set of m,
// plus one extra key from the same set (the n+1'th).
func keysInOneSet(m *Meta, n int) []uint64 {
	target := m.set(0)
	keys := []uint64{0}
	for k := uint64(1); len(keys) < n; k++ {
		if m.set(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

// Without BeginEpoch (epoch 0) pinning is disabled and fill always finds a
// victim — the historical simulator behaviour.
func TestEpochZeroNeverRejects(t *testing.T) {
	m := MustNewMeta(Ways) // one set
	keys := keysInOneSet(m, Ways+4)
	for _, k := range keys {
		if _, ok := m.Fill(k, 1); false && ok {
			t.Fatal("unreachable")
		}
	}
	if got := m.Stats().PinRejects; got != 0 {
		t.Fatalf("PinRejects = %d without BeginEpoch, want 0", got)
	}
}

// With every way of a set pinned by the current epoch, Insert must reject
// (dst == nil) instead of reusing storage a gather may still alias.
func TestInsertRejectsWhenSetFullyPinned(t *testing.T) {
	c := MustNew(Ways, 4) // one set
	keys := keysInOneSet(c.Meta, Ways+1)

	c.BeginEpoch()
	for _, k := range keys[:Ways] {
		dst, _, _ := c.Insert(k, 1)
		if dst == nil {
			t.Fatalf("Insert(%d) rejected with free ways available", k)
		}
	}
	if dst, _, _ := c.Insert(keys[Ways], 1); dst != nil {
		t.Fatal("Insert succeeded with every way pinned by the current epoch")
	}
	if got := c.Stats().PinRejects; got != 1 {
		t.Fatalf("PinRejects = %d, want 1", got)
	}

	// The next epoch unpins: the same insert now evicts normally.
	c.BeginEpoch()
	if dst, _, was := c.Insert(keys[Ways], 1); dst == nil || !was {
		t.Fatalf("Insert after next BeginEpoch: dst=%v wasEviction=%v, want fill+eviction", dst, was)
	}
}

// A row handed out by Lookup must stay valid (same backing storage, same
// contents) for the rest of the epoch, even when later fills pressure the
// same set.
func TestLookupPinSurvivesFillPressure(t *testing.T) {
	c := MustNew(Ways, 4)
	keys := keysInOneSet(c.Meta, 3*Ways)

	c.BeginEpoch()
	dst, _, _ := c.Insert(keys[0], 1)
	if dst == nil {
		t.Fatal("first insert rejected")
	}
	dst[0] = 42

	c.BeginEpoch()
	row, hit := c.Lookup(keys[0], 1)
	if !hit {
		t.Fatal("lookup missed a just-inserted key")
	}
	for _, k := range keys[1:] {
		c.Insert(k, 1)
	}
	if row[0] != 42 {
		t.Fatalf("pinned row was overwritten by fill pressure: got %v", row[0])
	}
	if got, hit := c.Lookup(keys[0], 1); !hit || &got[0] != &row[0] {
		t.Fatal("pinned key was evicted within its epoch")
	}
}

// A stale-invalidated slot keeps its pin: the storage may still be aliased
// by a gather earlier in the step, so fill must not reuse it until the
// next epoch.
func TestStaleInvalidateKeepsPin(t *testing.T) {
	c := MustNew(Ways, 4) // one set
	keys := keysInOneSet(c.Meta, Ways+1)

	c.BeginEpoch()
	for _, k := range keys[:Ways] {
		if dst, _, _ := c.Insert(k, 1); dst == nil {
			t.Fatalf("Insert(%d) rejected", k)
		}
	}
	// keys[0] is now stale for version 2: the lookup invalidates it but the
	// slot stays pinned.
	if _, hit := c.Lookup(keys[0], 2); hit {
		t.Fatal("stale lookup hit")
	}
	if dst, _, _ := c.Insert(keys[Ways], 1); dst != nil {
		t.Fatal("fill reused an invalidated-but-pinned slot within the epoch")
	}
}
