package cache

import (
	"math/rand"
	"testing"
)

func TestMetaValidation(t *testing.T) {
	if _, err := NewMeta(0); err == nil {
		t.Fatal("rows=0 must error")
	}
	m := MustNewMeta(3)
	if m.Rows() < 3 || m.Rows()%Ways != 0 {
		t.Fatalf("Rows = %d", m.Rows())
	}
}

func TestMetaProbeFillRoundtrip(t *testing.T) {
	m := MustNewMeta(64)
	if m.Probe(42, 0) {
		t.Fatal("empty directory must miss")
	}
	if _, was := m.Fill(42, 1); was {
		t.Fatal("fill into empty set must not evict")
	}
	if !m.Probe(42, 1) {
		t.Fatal("expected hit")
	}
	if !m.Contains(42) {
		t.Fatal("Contains should see the key")
	}
	// Stale version invalidates.
	if m.Probe(42, 2) {
		t.Fatal("newer wanted version must miss")
	}
	if m.Contains(42) {
		t.Fatal("stale entry must be invalidated")
	}
	st := m.Stats()
	if st.Hits != 1 || st.StaleHits != 1 || st.Inserted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMetaBump(t *testing.T) {
	m := MustNewMeta(64)
	m.Fill(7, 1)
	if !m.Bump(7, 5) || m.Bump(8, 5) {
		t.Fatal("Bump presence semantics wrong")
	}
	if !m.Probe(7, 5) {
		t.Fatal("bumped entry should hit at new version")
	}
}

func TestMetaEvictionLFU(t *testing.T) {
	m := MustNewMeta(Ways) // one set
	for k := uint64(0); k < Ways; k++ {
		m.Fill(k, 0)
	}
	hot := uint64(2)
	for i := 0; i < 5; i++ {
		m.Probe(hot, 0)
	}
	evicted, was := m.Fill(99, 0)
	if !was || evicted == hot {
		t.Fatalf("eviction wrong: evicted=%d was=%v", evicted, was)
	}
	if !m.Contains(hot) {
		t.Fatal("hot key must survive")
	}
	m.ResetStats()
	if m.Stats() != (Stats{}) {
		t.Fatal("ResetStats failed")
	}
}

func TestMetaAndCacheAgree(t *testing.T) {
	// The Cache's bookkeeping is exactly its embedded Meta's: the same
	// access pattern on both must produce identical statistics.
	meta := MustNewMeta(32)
	c := MustNew(32, 4)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(100))
		v := uint64(rng.Intn(3))
		if meta.Probe(k, v) != func() bool { _, hit := c.Lookup(k, v); return hit }() {
			t.Fatalf("probe/lookup diverged at op %d (key %d v %d)", i, k, v)
		}
		if !meta.Contains(k) {
			meta.Fill(k, v)
			c.Insert(k, v)
		}
	}
	if meta.Stats() != c.Stats() {
		t.Fatalf("stats diverged: meta=%+v cache=%+v", meta.Stats(), c.Stats())
	}
}

func TestLFUFreqSaturates(t *testing.T) {
	// A wrapped counter would turn the hottest slot of its set into the
	// next eviction victim; the increment must stick at the ceiling.
	s := slot{freq: ^uint32(0) - 1}
	bumpFreq(&s)
	if s.freq != ^uint32(0) {
		t.Fatalf("freq = %d, want max", s.freq)
	}
	bumpFreq(&s)
	if s.freq != ^uint32(0) {
		t.Fatalf("freq wrapped to %d", s.freq)
	}
}

// TestLFUAgingDistributionShift is the regression test for the
// ever-growing-frequency pathology: entrench working set A, then shift
// the distribution to a disjoint working set B of the same size. Without
// periodic aging A's frequencies are unreachable — every B insert
// enters at freq 1 and is always the set's next victim, so B thrashes
// through one slot per set (~1/Ways residency) while stale-hot A squats
// on the rest forever. With aging, A decays and B wins residency.
func TestLFUAgingDistributionShift(t *testing.T) {
	m := MustNewMeta(256)
	capacity := uint64(m.Rows())

	// Phase 1: A = [0, capacity) fills the directory and runs hot.
	for k := uint64(0); k < capacity; k++ {
		m.Fill(k, 0)
	}
	for r := 0; r < 64; r++ {
		for k := uint64(0); k < capacity; k++ {
			m.Probe(k, 0)
		}
	}

	// Phase 2: the shift — only B = [capacity, 2·capacity) is accessed.
	for r := 0; r < 100; r++ {
		for k := capacity; k < 2*capacity; k++ {
			if !m.Probe(k, 0) {
				m.Fill(k, 0)
			}
		}
	}

	resident := 0
	for k := capacity; k < 2*capacity; k++ {
		if m.Contains(k) {
			resident++
		}
	}
	if got := float64(resident) / float64(capacity); got < 0.5 {
		t.Fatalf("new-hot working set holds %.0f%% of the directory after the shift, want ≥ 50%% (stale-hot squatting — frequency aging broken)", got*100)
	}
}
