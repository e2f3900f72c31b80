package shard_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"frugal/internal/comm"
	"frugal/internal/data"
	"frugal/internal/pq"
	"frugal/internal/runtime"
	"frugal/internal/shard"
	"frugal/internal/store"
)

// servedOps counts the batched calls a shard server makes into its store:
// the server answers each versions, gather and scatter request frame with
// exactly one such call.
type servedOps struct {
	store.Store
	versions, gathers, scatters atomic.Int64
}

func (s *servedOps) Versions(keys []uint64, out []uint64) error {
	s.versions.Add(1)
	return s.Store.Versions(keys, out)
}

func (s *servedOps) Gather(keys []uint64, dst []float32, versions []uint64) error {
	s.gathers.Add(1)
	return s.Store.Gather(keys, dst, versions)
}

func (s *servedOps) Scatter(step int64, updates []store.KeyDelta) error {
	s.scatters.Add(1)
	return s.Store.Scatter(step, updates)
}

// loopbackShards starts `of` uncoordinated shard nodes initialised by
// init, serves each over loopback TCP, and returns the dialed clients with
// each node's served-op counts.
func loopbackShards(t *testing.T, rows int64, dim, of int, init func(uint64, []float32)) ([]*shard.RemoteStore, []*servedOps) {
	t.Helper()
	clients := make([]*shard.RemoteStore, of)
	served := make([]*servedOps, of)
	for i := range clients {
		node, err := shard.NewNode(shard.NodeOptions{
			Rows: rows, Dim: dim, Shard: i, Of: of, Uncoordinated: true, Init: init,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served[i] = &servedOps{Store: node}
		srv := shard.ServeListener(ln, served[i])
		t.Cleanup(func() { srv.Close() })
		rs, err := shard.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		clients[i] = rs
	}
	return clients, served
}

func composed(t *testing.T, shards ...store.Store) *store.ShardedStore {
	t.Helper()
	st, err := store.NewSharded(shards)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// countingSlab counts the step loop's and flushers' calls into the slab.
type countingSlab struct {
	runtime.RowStore
	versions, gathers, writeSets, perRow atomic.Int64
}

func (c *countingSlab) Versions(keys []uint64, out []uint64) {
	c.versions.Add(1)
	c.RowStore.Versions(keys, out)
}

func (c *countingSlab) GatherRows(keys []uint64, dsts [][]float32, locked bool) {
	c.gathers.Add(1)
	c.RowStore.GatherRows(keys, dsts, locked)
}

func (c *countingSlab) ApplyWriteSets(sets []pq.WriteSet) {
	c.writeSets.Add(1)
	c.RowStore.ApplyWriteSets(sets)
}

func (c *countingSlab) ReadRow(key uint64, dst []float32) uint64 {
	c.perRow.Add(1)
	return c.RowStore.ReadRow(key, dst)
}

func (c *countingSlab) ReadRowDirect(key uint64, dst []float32) {
	c.perRow.Add(1)
	c.RowStore.ReadRowDirect(key, dst)
}

func (c *countingSlab) ReadRowLocked(key uint64, dst []float32) {
	c.perRow.Add(1)
	c.RowStore.ReadRowLocked(key, dst)
}

func (c *countingSlab) ApplyDelta(key uint64, delta []float32, stateDelta float32) {
	c.perRow.Add(1)
	c.RowStore.ApplyDelta(key, delta, stateDelta)
}

func (c *countingSlab) ApplyUpdates(key uint64, updates []pq.Update) {
	c.perRow.Add(1)
	c.RowStore.ApplyUpdates(key, updates)
}

func zipfTrace(rows int64, batch int, steps int64) runtime.KeyTrace {
	return data.NewSyntheticTrace(data.NewScrambledZipf(5, uint64(rows), 0.9), batch, steps)
}

// TestWireTrainFrameCounts pins the batched step protocol: training over
// two loopback shards, each worker-step sends at most two read frames per
// shard (one versions probe, one gather), each flusher batch at most one
// scatter frame per shard, and no per-row call reaches the slab. With
// prefetch on, each worker's fill pass adds at most one Versions and one
// GatherRows call — one versions and one gather frame per shard — per
// 64-key chunk of every batch.
func TestWireTrainFrameCounts(t *testing.T) {
	const (
		rows   = 512
		dim    = 8
		gpus   = 2
		steps  = 40
		batch  = 64
		chunks = (batch + 63) / 64 // fill chunks per batch and worker
	)
	for _, prefetch := range []bool{false, true} {
		name := "demand"
		if prefetch {
			name = "prefetch"
		}
		t.Run(name, func(t *testing.T) {
			clients, served := loopbackShards(t, rows, dim, 2, testInit)
			slab, err := store.NewTrainSlab(composed(t, clients[0], clients[1]))
			if err != nil {
				t.Fatal(err)
			}
			counted := &countingSlab{RowStore: slab}
			job, err := runtime.NewMicro(runtime.Config{
				Engine: runtime.EngineFrugal, NumGPUs: gpus, Rows: rows, Dim: dim,
				FlushThreads: 2, CheckConsistency: true, Slab: counted, Prefetch: prefetch,
			}, zipfTrace(rows, batch, steps), steps)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run()
			if err != nil {
				t.Fatal(err)
			}
			if prefetch && res.CacheStats.PrefetchFills == 0 {
				t.Fatal("the prefetcher filled no row")
			}
			if n := counted.perRow.Load(); n != 0 {
				t.Fatalf("step loop, prefetcher and flushers made %d per-row slab calls, want 0", n)
			}
			// Read calls allowed per kind: one per worker-step, plus one
			// per fill chunk with prefetch on.
			calls := int64(gpus * steps)
			if prefetch {
				calls += gpus * steps * chunks
			}
			if v, g := counted.versions.Load(), counted.gathers.Load(); v > calls || g > calls {
				t.Fatalf("%d Versions and %d GatherRows calls, want ≤ %d each", v, g, calls)
			}
			batches := counted.writeSets.Load()
			if batches == 0 {
				t.Fatal("no flusher batch reached the slab")
			}
			for i, ops := range served {
				versions, gather, scatter := ops.versions.Load(), ops.gathers.Load(), ops.scatters.Load()
				if versions+gather > 2*calls {
					t.Errorf("shard %d: %d versions + %d gather frames, want ≤ %d",
						i, versions, gather, 2*calls)
				}
				if versions > counted.versions.Load() || gather > counted.gathers.Load() {
					t.Errorf("shard %d: %d versions / %d gather frames for %d / %d slab calls",
						i, versions, gather, counted.versions.Load(), counted.gathers.Load())
				}
				if scatter == 0 || scatter > batches {
					t.Errorf("shard %d: %d scatter frames for %d flusher batches, want 1..%d", i, scatter, batches, batches)
				}
			}
		})
	}
}

// TestUncoordinatedScatterSkipsIdleShards checks that a scatter over
// uncoordinated shards reaches only the shards owning its keys: the empty
// commit frame exists for coordinated watermarks alone.
func TestUncoordinatedScatterSkipsIdleShards(t *testing.T) {
	const rows, dim = 64, 4
	clients, served := loopbackShards(t, rows, dim, 2, testInit)
	st := composed(t, clients[0], clients[1])
	var key uint64
	for comm.Owner(key, 2) != 0 {
		key++
	}
	if err := st.Scatter(0, []store.KeyDelta{{Key: key, Delta: make([]float32, dim)}}); err != nil {
		t.Fatal(err)
	}
	if f := served[0].scatters.Load(); f != 1 {
		t.Fatalf("owning shard got %d scatter frames, want 1", f)
	}
	if f := served[1].scatters.Load(); f != 0 {
		t.Fatalf("idle shard got %d scatter frames, want 0", f)
	}
}

// slowShard is a shard whose writes take a while to land, so flusher
// batches stay in flight across steps.
type slowShard struct {
	store.Store
	delay time.Duration
}

func (s slowShard) Scatter(step int64, updates []store.KeyDelta) error {
	time.Sleep(s.delay)
	return s.Store.Scatter(step, updates)
}

// TestSlowShardGate trains over two shards, one of which delays every
// write, with the invariant check on: the in-flight floor must keep the
// gate closed while a batch is on its way, and a key's later write set
// must not overtake an earlier one. The run must match a job over an
// in-process host slab bit for bit.
func TestSlowShardGate(t *testing.T) {
	const (
		rows  = 256
		dim   = 8
		steps = 60
	)
	cfg := runtime.Config{
		Engine: runtime.EngineFrugal, NumGPUs: 1, Rows: rows, Dim: dim,
		Lookahead: 4, FlushThreads: 4, DequeueBatch: 8, Seed: 3, CheckConsistency: true,
	}
	ref, err := runtime.NewMicro(cfg, zipfTrace(rows, 32, steps), steps)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([][]float32, rows)
	for k := range initial {
		initial[k] = ref.Host().Snapshot(uint64(k))
	}
	refRes, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	shards := make([]store.Store, 2)
	for i := range shards {
		node, err := shard.NewNode(shard.NodeOptions{
			Rows: rows, Dim: dim, Shard: i, Of: 2, Uncoordinated: true,
			Init: func(key uint64, row []float32) { copy(row, initial[key]) },
		})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = node
	}
	shards[1] = slowShard{Store: shards[1], delay: 300 * time.Microsecond}
	st := composed(t, shards...)
	slab, err := store.NewTrainSlab(st)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Slab = slab
	job, err := runtime.NewMicro(cfg, zipfTrace(rows, 32, steps), steps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	for s := range refRes.Losses {
		if res.Losses[s] != refRes.Losses[s] {
			t.Fatalf("step %d loss %v over the slow shard, %v in process", s, res.Losses[s], refRes.Losses[s])
		}
	}
	got := make([]float32, dim)
	want := make([]float32, dim)
	for k := uint64(0); k < rows; k++ {
		if _, err := st.ReadRow(k, got); err != nil {
			t.Fatal(err)
		}
		ref.Host().ReadRowLocked(k, want)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("key %d dim %d: %v over the slow shard, %v in process", k, j, got[j], want[j])
			}
		}
	}
}
