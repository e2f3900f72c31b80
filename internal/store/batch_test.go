package store_test

import (
	"sync/atomic"
	"testing"

	"frugal/internal/pq"
	"frugal/internal/store"
)

// committingShard is a coordinated fake shard whose watermark advances
// while its row lags one commit behind: every RowStaleness probe measures
// the lag against the current watermark and then lets the next step
// commit, as if a trainer's commit landed right after the probe. The row
// holds every step ≤ applied.
type committingShard struct {
	store.Store
	wm      atomic.Int64
	applied int64
}

func (s *committingShard) Rows() int64       { return 16 }
func (s *committingShard) Dim() int          { return 2 }
func (s *committingShard) Coordinated() bool { return true }
func (s *committingShard) Watermark() int64  { return s.wm.Load() }

func (s *committingShard) RowStaleness(uint64) (lag, watermark int64, err error) {
	wm := s.wm.Load()
	lag = wm - s.applied
	s.wm.Add(1)
	return lag, wm, nil
}

// TestShardedStalenessSamplesWatermarkFirst is the regression test for
// the sharded staleness pair: the composed watermark must be read before
// the owner's lag. Read after it, the commit that lands between the two
// reads lifts the watermark past the one the lag was measured against,
// and the pair claims a step the row does not hold. The fake shard makes
// that commit land on every probe, so the old order fails every run.
func TestShardedStalenessSamplesWatermarkFirst(t *testing.T) {
	sh := &committingShard{applied: 5}
	sh.wm.Store(5)
	st, err := store.NewSharded([]store.Store{sh})
	if err != nil {
		t.Fatal(err)
	}
	lag, wm, err := st.RowStaleness(3)
	if err != nil {
		t.Fatal(err)
	}
	if holds := wm - lag; holds > sh.applied {
		t.Fatalf("RowStaleness = (lag %d, watermark %d) claims steps ≤ %d, row holds only ≤ %d",
			lag, wm, holds, sh.applied)
	}
}

// TestTrainSlabBatchMethods checks the batch half of the RowStore
// surface over an uncoordinated local store: versions, gathered rows and
// write sets applied in order, one version bump per update.
func TestTrainSlabBatchMethods(t *testing.T) {
	h := newHost(t, 16, 4)
	ls, err := store.NewLocal(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := store.NewTrainSlab(ls)
	if err != nil {
		t.Fatal(err)
	}
	slab.ApplyWriteSets([]pq.WriteSet{
		{Key: 2, Updates: []pq.Update{{Delta: []float32{1, 0, 0, 0}}, {Delta: []float32{2, 0, 0, 0}}}},
		{Key: 5, Updates: []pq.Update{{Delta: []float32{0, 1, 0, 0}}}},
	})
	keys := []uint64{5, 2, 9}
	vers := make([]uint64, len(keys))
	slab.Versions(keys, vers)
	if vers[0] != 1 || vers[1] != 2 || vers[2] != 0 {
		t.Fatalf("Versions(%v) = %v, want [1 2 0]", keys, vers)
	}
	dsts := [][]float32{make([]float32, 4), make([]float32, 4), make([]float32, 4)}
	slab.GatherRows(keys, dsts, false)
	if dsts[0][1] != 6.125 || dsts[1][0] != 5 || dsts[2][0] != 9 {
		t.Fatalf("GatherRows(%v) = %v", keys, dsts)
	}
}
