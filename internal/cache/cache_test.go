package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Fatal("rows=0 should error")
	}
	if _, err := New(8, 0); err == nil {
		t.Fatal("dim=0 should error")
	}
	c := MustNew(3, 4)
	if c.Rows() < 3 || c.Rows()%Ways != 0 {
		t.Fatalf("Rows = %d", c.Rows())
	}
	if c.Dim() != 4 {
		t.Fatalf("Dim = %d", c.Dim())
	}
}

func TestInsertLookupRoundtrip(t *testing.T) {
	c := MustNew(64, 4)
	dst, _, ev := c.Insert(42, 1)
	if ev {
		t.Fatal("insert into empty cache should not evict")
	}
	copy(dst, []float32{1, 2, 3, 4})
	row, hit := c.Lookup(42, 1)
	if !hit {
		t.Fatal("expected hit")
	}
	for i, want := range []float32{1, 2, 3, 4} {
		if row[i] != want {
			t.Fatalf("row[%d] = %v, want %v", i, row[i], want)
		}
	}
	if _, hit := c.Lookup(43, 0); hit {
		t.Fatal("expected miss for absent key")
	}
}

func TestStaleVersionIsMiss(t *testing.T) {
	c := MustNew(64, 2)
	dst, _, _ := c.Insert(7, 3)
	copy(dst, []float32{1, 1})
	if _, hit := c.Lookup(7, 3); !hit {
		t.Fatal("same version should hit")
	}
	// Host moved to version 5: the cached copy is outdated and must be
	// invalidated, not returned.
	if _, hit := c.Lookup(7, 5); hit {
		t.Fatal("stale version must miss")
	}
	if c.Contains(7) {
		t.Fatal("stale entry should be invalidated")
	}
	st := c.Stats()
	if st.StaleHits != 1 {
		t.Fatalf("StaleHits = %d, want 1", st.StaleHits)
	}
}

func TestBump(t *testing.T) {
	c := MustNew(64, 2)
	c.Insert(7, 1)
	if !c.Bump(7, 9) {
		t.Fatal("Bump of present key should succeed")
	}
	if _, hit := c.Lookup(7, 9); !hit {
		t.Fatal("bumped entry should hit at new version")
	}
	if c.Bump(8, 1) {
		t.Fatal("Bump of absent key should fail")
	}
}

func TestInsertRefreshInPlace(t *testing.T) {
	c := MustNew(64, 2)
	d1, _, _ := c.Insert(7, 1)
	copy(d1, []float32{1, 2})
	d2, _, ev := c.Insert(7, 2)
	if ev {
		t.Fatal("re-insert must refresh, not evict")
	}
	copy(d2, []float32{3, 4})
	row, hit := c.Lookup(7, 2)
	if !hit || row[0] != 3 {
		t.Fatalf("refresh lost: hit=%v row=%v", hit, row)
	}
	if st := c.Stats(); st.Inserted != 1 {
		t.Fatalf("Inserted = %d, want 1 (refresh is not an insert)", st.Inserted)
	}
}

func TestEvictionPrefersColdKeys(t *testing.T) {
	// One set of Ways slots: fill it, make one key hot, add one more key;
	// the hot key must survive.
	c := MustNew(Ways, 2) // exactly one set
	for k := uint64(0); k < Ways; k++ {
		c.Insert(k, 1)
	}
	hot := uint64(3)
	for i := 0; i < 10; i++ {
		c.Lookup(hot, 1)
	}
	_, evicted, was := c.Insert(100, 1)
	if !was {
		t.Fatal("full set must evict")
	}
	if evicted == hot {
		t.Fatal("LFU must not evict the hot key")
	}
	if !c.Contains(hot) || !c.Contains(100) {
		t.Fatal("hot and new keys must both be present")
	}
}

func TestEvictionFillsEmptySlotsFirst(t *testing.T) {
	c := MustNew(Ways, 2)
	for k := uint64(0); k < Ways-1; k++ {
		c.Insert(k, 1)
	}
	_, _, was := c.Insert(99, 1)
	if was {
		t.Fatal("insert with an empty slot available must not evict")
	}
	if st := c.Stats(); st.Evicted != 0 {
		t.Fatalf("Evicted = %d, want 0", st.Evicted)
	}
}

func TestHitRatioStats(t *testing.T) {
	c := MustNew(64, 2)
	c.Insert(1, 0)
	c.Lookup(1, 0) // hit
	c.Lookup(2, 0) // miss
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if r := st.HitRatio(); r != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", r)
	}
	c.ResetStats()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("ResetStats failed: %+v", st)
	}
	if (Stats{}).HitRatio() != 0 {
		t.Fatal("empty HitRatio should be 0")
	}
}

func TestZipfWorkloadHitRatio(t *testing.T) {
	// A 10%-capacity cache over a Zipf-skewed trace must achieve a high
	// hit ratio — the premise of multi-GPU embedding caching (§2.1).
	const keys = 10000
	c := MustNew(keys/10, 8)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.3, 1, keys-1)
	warm := func(n int) {
		for i := 0; i < n; i++ {
			k := z.Uint64()
			if _, hit := c.Lookup(k, 0); !hit {
				c.Insert(k, 0)
			}
		}
	}
	warm(20000)
	c.ResetStats()
	warm(20000)
	if r := c.Stats().HitRatio(); r < 0.5 {
		t.Fatalf("zipf hit ratio = %.3f, want > 0.5", r)
	}
}

// Property: after inserting any sequence of keys, a Lookup hit always
// returns the most recently written row content.
func TestLookupReturnsLatestWriteProperty(t *testing.T) {
	f := func(keys []uint8) bool {
		c := MustNew(32, 1)
		latest := make(map[uint64]float32)
		for i, kraw := range keys {
			k := uint64(kraw % 16)
			v := float32(i)
			if row, hit := c.Lookup(k, 0); hit {
				row[0] = v
			} else {
				dst, _, _ := c.Insert(k, 0)
				dst[0] = v
			}
			latest[k] = v
			// Immediate readback must observe the write.
			row, hit := c.Lookup(k, 0)
			if !hit || row[0] != v {
				return false
			}
		}
		// All still-cached keys must hold their latest value.
		for k, v := range latest {
			if row, hit := c.Lookup(k, 0); hit && row[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
