package serve_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frugal/internal/comm"
	"frugal/internal/serve"
	"frugal/internal/shard"
	"frugal/internal/store"
)

// shardCluster builds `of` coordinated shard nodes, serves each over
// loopback TCP, and composes the dialed clients into one sharded store.
func shardCluster(t *testing.T, rows int64, dim, of int) *store.ShardedStore {
	t.Helper()
	addrs := make([]string, of)
	for i := 0; i < of; i++ {
		node, err := shard.NewNode(shard.NodeOptions{
			Rows: rows, Dim: dim, Shard: i, Of: of, Trainers: 1,
			Init: func(key uint64, row []float32) {
				for j := range row {
					row[j] = float32(key)*0.001 + float32(j)*0.01
				}
			},
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
		addrs[i] = srv.Addr()
	}
	st, err := shard.DialSharded(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestShardedServeWhileTraining is the sharded acceptance test: a serve
// engine over a 3-shard cluster answers Bounded(k) lookups concurrently
// with a full-sweep trainer driving the cluster, and every admitted read
// satisfies the version inequality
//
//	version ≥ G·(watermark + 1 − staleness)
//
// with G = 1 (full sweep: one update per key per step) and the watermark
// taken as the cross-shard minimum — the one-sided composition the
// sharded store's consistency story rests on. Run under -race; the point
// is the concurrent interleaving as much as the inequality.
func TestShardedServeWhileTraining(t *testing.T) {
	const (
		rows  = 90
		dim   = 8
		steps = 120
		bound = 2
	)
	st := shardCluster(t, rows, dim, 3)
	eng, err := serve.NewFromStore(st, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}

	trainDone := make(chan error, 1)
	go func() {
		trainDone <- store.RunTrainer(context.Background(), st, store.TrainerConfig{
			Steps: steps, LR: 0.1, Seed: 7,
		})
	}()

	var (
		wg       sync.WaitGroup
		admitted atomic.Int64
		stop     atomic.Bool
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float32, dim)
			key := uint64(w * 13)
			for !stop.Load() {
				key = (key + 7) % rows
				resp, err := eng.Query(context.Background(), serve.Request{
					Key: key, Dst: dst, Level: serve.Bounded(bound),
				})
				if err != nil {
					t.Errorf("bounded lookup key %d: %v", key, err)
					return
				}
				meta := resp.Meta
				if meta.Staleness > bound {
					t.Errorf("key %d: staleness %d exceeds bound %d", key, meta.Staleness, bound)
					return
				}
				// PR-4, G = 1: every step ≤ watermark committed one update
				// to this key, and at most `staleness` of them may still be
				// in flight.
				if min := meta.Watermark + 1 - meta.Staleness; min > 0 && int64(meta.Version) < min {
					t.Errorf("key %d: version %d < watermark %d + 1 − staleness %d",
						key, meta.Version, meta.Watermark, meta.Staleness)
					return
				}
				admitted.Add(1)
			}
		}(w)
	}

	if err := <-trainDone; err != nil {
		t.Fatalf("trainer: %v", err)
	}
	// Let the readers observe the final state for a moment, then stop.
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if n := admitted.Load(); n < 100 {
		t.Fatalf("only %d lookups admitted during training — the test did not overlap", n)
	}

	// The composed watermark must reach the last committed step once every
	// shard has drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if wm := st.Watermark(); wm == steps-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("composed watermark %d never reached %d", st.Watermark(), steps-1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And a fresh read now sees exactly `steps` versions on every key.
	dst := make([]float32, dim)
	for key := uint64(0); key < rows; key++ {
		resp, err := eng.Query(context.Background(), serve.Request{
			Key: key, Dst: dst, Level: serve.Fresh(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Meta.Version != steps {
			t.Fatalf("key %d: version %d after %d full-sweep steps", key, resp.Meta.Version, steps)
		}
	}
}

// TestEngineOverNode serves one shard node in-process. The node's
// compact slab holds only the rows its shard owns, so slab index ≠
// global key: the engine must answer top-K through Store.TopK (owned
// global keys, the node's own scores) and refuse an IVF index, which
// would scan the compact slab as if it were the whole table.
func TestEngineOverNode(t *testing.T) {
	const rows, dim, of = 128, 4, 2
	node, err := shard.NewNode(shard.NodeOptions{
		Rows: rows, Dim: dim, Shard: 1, Of: of, Trainers: 1,
		Init: func(key uint64, row []float32) {
			for j := range row {
				row[j] = float32(key)*0.001 + float32(j)*0.01
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	eng, err := serve.NewFromStore(node, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	query := []float32{1, 1, 1, 1}
	const k = 3
	resp, err := eng.Query(context.Background(), serve.Request{Vector: query, K: k, Index: serve.IndexFlat})
	if err != nil {
		t.Fatal(err)
	}
	want, err := node.TopK(context.Background(), query, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != k || len(want) != k {
		t.Fatalf("engine returned %d results, node %d, want %d", len(resp.Results), len(want), k)
	}
	for i, c := range resp.Results {
		if comm.Owner(c.Key, of) != 1 {
			t.Errorf("result %d: key %d is not owned by shard 1", i, c.Key)
		}
		if c.Key != want[i].Key || c.Score != want[i].Score {
			t.Errorf("result %d = key %d score %v, node.TopK says key %d score %v",
				i, c.Key, c.Score, want[i].Key, want[i].Score)
		}
	}

	_, err = serve.NewFromStore(node, serve.Options{Index: serve.IndexIVF})
	if err == nil || !strings.Contains(err.Error(), "requires a slab-backed (local) store") {
		t.Fatalf("IVF over a shard node: err = %v, want the slab-backed refusal", err)
	}
}
