package serve

import (
	"context"
	"math"
	"testing"

	"frugal/internal/runtime"
)

// twoClusterHost puts keys [0,32) at (10,…) and [32,64) at (…,10), with a
// per-key epsilon so rows stay distinct.
func twoClusterHost(t *testing.T) *runtime.Host {
	t.Helper()
	h, err := runtime.NewHost(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(key uint64, row []float32) {
		if key < 32 {
			row[0] = 10
		} else {
			row[7] = 10
		}
		row[3] = float32(key) * 1e-3
	})
	return h
}

func newTestScratch(c int) *topkScratch {
	return &topkScratch{
		scores: make([]float32, topkChunk),
		row:    make([]float32, 8),
		cent:   make([]float32, c),
		probes: make([]int, c),
	}
}

// TestIVFBuildPartitionsClusters checks that the k-means build separates
// an obviously clusterable slab and that probing one partition returns
// only its members.
func TestIVFBuildPartitionsClusters(t *testing.T) {
	h := twoClusterHost(t)
	idx := newIVFIndex(64, 8, 2, 1)
	idx.build(h)
	if got := len(idx.parts[0].keys) + len(idx.parts[1].keys); got != 64 {
		t.Fatalf("partitions hold %d keys, want 64", got)
	}
	// All keys < 32 must share a partition, and keys ≥ 32 the other.
	p0 := idx.part[0]
	for key := uint64(1); key < 64; key++ {
		same := idx.part[key] == p0
		if want := key < 32; same != want {
			t.Fatalf("key %d landed in partition %d (key 0 in %d)", key, idx.part[key], p0)
		}
	}
	// A query at cluster A's center with nprobe=1 only sees cluster A.
	query := []float32{1, 0, 0, 0, 0, 0, 0, 0}
	heap := idx.search(query, 5, 1, newTestScratch(2))
	if len(heap) != 5 {
		t.Fatalf("search returned %d candidates", len(heap))
	}
	for _, c := range heap {
		if c.Key >= 32 {
			t.Fatalf("nprobe=1 search leaked key %d from the far cluster", c.Key)
		}
	}
}

// TestIVFTiesTowardSmallerKey pins the documented tie order on the IVF
// path. Rows 0 = (1,−5) and 1 = (1,+5) both score 1 against e1 but land
// in different partitions; row 2 = (−3,−5) pulls row 0's centroid to a
// lower e1 score, so the search visits row 1's partition first. A
// replacement test on score alone keeps the first-seen row 1; the
// documented order, which the flat scan follows, returns the smaller key.
func TestIVFTiesTowardSmallerKey(t *testing.T) {
	h, err := runtime.NewHost(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, row := range [][]float32{{1, -5}, {1, 5}, {-3, -5}} {
		h.SetRow(uint64(k), row, 1, 0)
	}
	eng, err := NewStatic(h, Options{Index: IndexIVF, Centroids: 2, NProbe: 2})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := eng.idx.part[0], eng.idx.part[1]
	if p0 == p1 || eng.idx.part[2] != p0 {
		t.Fatalf("fixture: partitions %v, want rows 0 and 2 together and row 1 apart", eng.idx.part)
	}
	sc := newTestScratch(2)
	eng.idx.cents.MulVec([]float32{1, 0}, sc.cent)
	if sc.cent[p1] <= sc.cent[p0] {
		t.Fatalf("fixture: row 1's partition scores %v, not above row 0's %v", sc.cent[p1], sc.cent[p0])
	}
	for _, kind := range []IndexKind{IndexFlat, IndexIVF} {
		resp, err := eng.Query(context.Background(), Request{Vector: []float32{1, 0}, K: 1, Index: kind})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Results[0].Key; got != 0 {
			t.Fatalf("%v top-1 of a tie is key %d, want the smaller key 0", kind, got)
		}
	}
}

// TestIVFRepairQueue drives the watermark-bounded repair contract
// directly: dedupe keeps the first unrepaired watermark, repair(upTo)
// drains exactly the records at or below upTo, and a repaired row moves
// to its new partition.
func TestIVFRepairQueue(t *testing.T) {
	h := twoClusterHost(t)
	idx := newIVFIndex(64, 8, 2, 1)
	idx.build(h)

	// Rewrite key 5 to sit in cluster B, as a flush would.
	delta := make([]float32, 8)
	delta[0], delta[7] = -10, 10
	h.ApplyDelta(5, delta, 0)
	idx.markDirty(5, 3)
	idx.markDirty(5, 7) // dedupe: first watermark wins
	idx.markDirty(6, 9)

	st := idx.stats()
	if st.Pending != 2 || st.OldestPending != 3 {
		t.Fatalf("queue before repair: %+v", st)
	}

	oldPart := idx.part[5]
	idx.repair(h, 5, 0) // covers wm ≤ 5: key 5 only
	st = idx.stats()
	if st.Pending != 1 || st.OldestPending != 9 || st.Repairs != 1 {
		t.Fatalf("queue after bounded repair: %+v", st)
	}
	if idx.part[5] == oldPart {
		t.Fatal("repair did not move the rewritten row to its new partition")
	}
	if idx.part[5] != idx.part[40] {
		t.Fatalf("key 5 repaired into partition %d, want cluster B's %d", idx.part[5], idx.part[40])
	}
	// The moved row is findable through its new partition.
	query := []float32{0, 0, 0, 0, 0, 0, 0, 1}
	found := false
	for _, c := range idx.search(query, 33, 1, newTestScratch(2)) {
		if c.Key == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("repaired key not served from its new partition")
	}

	idx.repair(h, math.MaxInt64, 0) // fresh: drain everything
	st = idx.stats()
	if st.Pending != 0 || st.Repairs != 2 {
		t.Fatalf("queue after full repair: %+v", st)
	}

	// Opportunistic budget: a repair with no obligation still drains.
	idx.markDirty(6, 11)
	idx.repair(h, math.MinInt64, ivfRepairBudget)
	if st = idx.stats(); st.Pending != 0 {
		t.Fatalf("opportunistic repair left %d pending", st.Pending)
	}
}

// TestParseIndexKind pins the flag syntax.
func TestParseIndexKind(t *testing.T) {
	for in, want := range map[string]IndexKind{
		"": IndexAuto, "auto": IndexAuto, "flat": IndexFlat, "ivf": IndexIVF,
	} {
		got, err := ParseIndexKind(in)
		if err != nil || got != want {
			t.Fatalf("ParseIndexKind(%q) = %v, %v", in, got, err)
		}
		if in != "" && got.String() != in {
			t.Fatalf("String() round trip: %q → %q", in, got.String())
		}
	}
	if _, err := ParseIndexKind("hnsw"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if err := IndexKind(9).Validate(); err == nil {
		t.Fatal("unknown kind validated")
	}
}
