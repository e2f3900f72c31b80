package shard_test

import (
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

// loopbackShards starts `of` uncoordinated shard nodes initialised by
// init, serves each over loopback TCP, and returns the dialed clients.
func loopbackShards(t *testing.T, rows int64, dim, of int, init func(uint64, []float32)) []*shard.RemoteStore {
	t.Helper()
	clients := make([]*shard.RemoteStore, of)
	for i := range clients {
		node, err := shard.NewNode(shard.NodeOptions{
			Rows: rows, Dim: dim, Shard: i, Of: of, Uncoordinated: true, Init: init,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		srv, err := shard.NewServer("127.0.0.1:0", node)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		rs, err := shard.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		clients[i] = rs
	}
	return clients
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

func (c *countingSlab) Version(key uint64) uint64 {
	c.perRow.Add(1)
	return c.RowStore.Version(key)
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
// scatter frame per shard, and no per-row frame crosses the wire.
func TestWireTrainFrameCounts(t *testing.T) {
	const (
		rows  = 512
		dim   = 8
		gpus  = 2
		steps = 40
	)
	clients := loopbackShards(t, rows, dim, 2, testInit)
	slab, err := store.NewTrainSlab(composed(t, clients[0], clients[1]))
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingSlab{RowStore: slab}
	job, err := runtime.NewMicro(runtime.Config{
		Engine: runtime.EngineFrugal, NumGPUs: gpus, Rows: rows, Dim: dim,
		FlushThreads: 2, CheckConsistency: true, Slab: counted,
	}, zipfTrace(rows, 64, steps), steps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if n := counted.perRow.Load(); n != 0 {
		t.Fatalf("step loop and flushers made %d per-row slab calls, want 0", n)
	}
	if v, g := counted.versions.Load(), counted.gathers.Load(); v > gpus*steps || g > gpus*steps {
		t.Fatalf("%d Versions and %d GatherRows calls for %d worker-steps", v, g, gpus*steps)
	}
	batches := counted.writeSets.Load()
	if batches == 0 {
		t.Fatal("no flusher batch reached the slab")
	}
	for i, rs := range clients {
		st := rs.Stats()
		for _, op := range []string{"read_row", "version"} {
			if f := st.Op(op).Frames; f != 0 {
				t.Errorf("shard %d: %d %s frames, want 0", i, f, op)
			}
		}
		versions, gather, scatter := st.Op("versions").Frames, st.Op("gather").Frames, st.Op("scatter").Frames
		if versions+gather > 2*gpus*steps {
			t.Errorf("shard %d: %d versions + %d gather frames for %d worker-steps, want ≤ 2 per worker-step",
				i, versions, gather, gpus*steps)
		}
		if versions > counted.versions.Load() || gather > counted.gathers.Load() {
			t.Errorf("shard %d: %d versions / %d gather frames for %d / %d slab calls",
				i, versions, gather, counted.versions.Load(), counted.gathers.Load())
		}
		if scatter == 0 || scatter > batches {
			t.Errorf("shard %d: %d scatter frames for %d flusher batches, want 1..%d", i, scatter, batches, batches)
		}
		if g := st.Op("gather"); g.BytesSent == 0 || g.BytesRecv == 0 {
			t.Errorf("shard %d: gather byte counters did not move: %+v", i, g)
		}
	}
}

// TestUncoordinatedScatterSkipsIdleShards checks that a scatter over
// uncoordinated shards reaches only the shards owning its keys: the empty
// commit frame exists for coordinated watermarks alone.
func TestUncoordinatedScatterSkipsIdleShards(t *testing.T) {
	const rows, dim = 64, 4
	clients := loopbackShards(t, rows, dim, 2, testInit)
	st := composed(t, clients[0], clients[1])
	var key uint64
	for comm.Owner(key, 2) != 0 {
		key++
	}
	if err := st.Scatter(0, []store.KeyDelta{{Key: key, Delta: make([]float32, dim)}}); err != nil {
		t.Fatal(err)
	}
	if f := clients[0].Stats().Op("scatter").Frames; f != 1 {
		t.Fatalf("owning shard got %d scatter frames, want 1", f)
	}
	if f := clients[1].Stats().Op("scatter").Frames; f != 0 {
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
