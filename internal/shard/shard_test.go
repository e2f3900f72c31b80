package shard_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"frugal/internal/comm"
	"frugal/internal/shard"
	"frugal/internal/store"
)

// testInit fills rows deterministically by global key so every shard of
// one table initialises identically.
func testInit(key uint64, row []float32) {
	for j := range row {
		row[j] = float32(key)*0.001 + float32(j)*0.01
	}
}

// newCluster builds `of` coordinated nodes, serves each over loopback
// TCP, dials them, and composes the sharded store.
func newCluster(t *testing.T, rows int64, dim, of, trainers int) *store.ShardedStore {
	t.Helper()
	addrs := make([]string, of)
	for i := 0; i < of; i++ {
		node, err := shard.NewNode(shard.NodeOptions{
			Rows: rows, Dim: dim, Shard: i, Of: of,
			Trainers: trainers, Init: testInit,
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

// TestRemoteMatchesLocal drives the same operations through a local
// single-shard node and through the wire, and demands identical results —
// the conformance test for the whole client/server/codec stack.
func TestRemoteMatchesLocal(t *testing.T) {
	const rows, dim = 64, 8
	local, err := shard.NewNode(shard.NodeOptions{Rows: rows, Dim: dim, Trainers: 1, Init: testInit})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	remoteNode, err := shard.NewNode(shard.NodeOptions{Rows: rows, Dim: dim, Trainers: 1, Init: testInit})
	if err != nil {
		t.Fatal(err)
	}
	defer remoteNode.Close()
	srv, err := shard.NewServer("127.0.0.1:0", remoteNode)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	remote, err := shard.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if remote.Rows() != rows || remote.Dim() != dim || !remote.Coordinated() {
		t.Fatalf("Info = %d×%d coordinated=%v", remote.Rows(), remote.Dim(), remote.Coordinated())
	}
	if err := remote.Ping(); err != nil {
		t.Fatal(err)
	}

	// Identical scatters on both sides.
	for step := int64(0); step < 3; step++ {
		for _, st := range []store.Store{local, remote} {
			upd := make([]store.KeyDelta, 0, 4)
			for i := 0; i < 4; i++ {
				delta := make([]float32, dim)
				delta[0] = float32(step+1) * 0.5
				upd = append(upd, store.KeyDelta{Key: uint64(step*4 + int64(i)), Delta: delta})
			}
			if err := st.Scatter(step, upd); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitWatermark(t, local, 2)
	waitWatermark(t, remote, 2)

	a, b := make([]float32, dim), make([]float32, dim)
	for key := uint64(0); key < rows; key++ {
		if _, err := local.FlushKey(key); err != nil {
			t.Fatal(err)
		}
		if _, err := remote.FlushKey(key); err != nil {
			t.Fatal(err)
		}
		va, err := local.ReadRow(key, a)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := remote.ReadRow(key, b)
		if err != nil {
			t.Fatal(err)
		}
		if va != vb {
			t.Fatalf("key %d: versions %d vs %d", key, va, vb)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("key %d: rows diverge at %d: %v vs %v", key, j, a[j], b[j])
			}
		}
		lagA, wmA, err := local.RowStaleness(key)
		if err != nil {
			t.Fatal(err)
		}
		lagB, wmB, err := remote.RowStaleness(key)
		if err != nil {
			t.Fatal(err)
		}
		if lagA != lagB || wmA != wmB {
			t.Fatalf("key %d: staleness (%d,%d) vs (%d,%d)", key, lagA, wmA, lagB, wmB)
		}
	}

	// Batched gather equals per-key reads.
	keys := []uint64{3, 1, 4, 1, 5, 9}
	gath := make([]float32, len(keys)*dim)
	vers := make([]uint64, len(keys))
	if err := remote.Gather(keys, gath, vers); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, err := local.ReadRow(k, a)
		if err != nil {
			t.Fatal(err)
		}
		if vers[i] != v {
			t.Fatalf("gather version[%d] = %d, want %d", i, vers[i], v)
		}
		for j := range a {
			if gath[i*dim+j] != a[j] {
				t.Fatalf("gather key %d diverges at %d", k, j)
			}
		}
	}

	// Top-K parity (same slab contents on both sides).
	query := make([]float32, dim)
	query[0] = 1
	top1, err := local.TopK(context.Background(), query, 5)
	if err != nil {
		t.Fatal(err)
	}
	top2, err := remote.TopK(context.Background(), query, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top1) != len(top2) {
		t.Fatalf("topk lengths %d vs %d", len(top1), len(top2))
	}
	for i := range top1 {
		if top1[i] != top2[i] {
			t.Fatalf("topk[%d] = %+v vs %+v", i, top1[i], top2[i])
		}
	}
}

// TestApplicationErrorKeepsConnection pins the error taxonomy: an
// application-level rejection comes back as a plain error and the
// connection keeps working; only transport failures are
// *store.ShardUnavailableError.
func TestApplicationErrorKeepsConnection(t *testing.T) {
	node, err := shard.NewNode(shard.NodeOptions{Rows: 10, Dim: 4, Shard: 0, Of: 2, Trainers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv, err := shard.NewServer("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rs, err := shard.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// Find a key shard 0 of 2 does not own.
	foreign := uint64(0)
	for ; comm.Owner(foreign, 2) == 0; foreign++ {
	}
	dst := make([]float32, 4)
	_, err = rs.ReadRow(foreign, dst)
	if err == nil {
		t.Fatal("read of unowned key succeeded")
	}
	var down *store.ShardUnavailableError
	if errors.As(err, &down) {
		t.Fatalf("application error arrived as ShardUnavailableError: %v", err)
	}
	if !strings.Contains(err.Error(), "not owned") {
		t.Fatalf("error %q does not explain ownership", err)
	}
	// Same connection still serves owned keys.
	owned := uint64(0)
	for ; comm.Owner(owned, 2) != 0; owned++ {
	}
	if _, err := rs.ReadRow(owned, dst); err != nil {
		t.Fatalf("read after application error: %v", err)
	}
}

func TestServerDownIsShardUnavailable(t *testing.T) {
	node, err := shard.NewNode(shard.NodeOptions{Rows: 10, Dim: 4, Trainers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	srv, err := shard.NewServer("127.0.0.1:0", node)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := shard.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	srv.Close()

	dst := make([]float32, 4)
	_, err = rs.ReadRow(1, dst)
	var down *store.ShardUnavailableError
	if !errors.As(err, &down) {
		t.Fatalf("read against a closed server = %v, want *store.ShardUnavailableError", err)
	}
	if down.Addr != rs.Addr() {
		t.Fatalf("error names %q, want %q", down.Addr, rs.Addr())
	}
	// The watermark surface cannot error: it degrades to -1.
	if wm := rs.Watermark(); wm != -1 {
		t.Fatalf("watermark of unreachable shard = %d, want -1", wm)
	}
}

// TestShardedClusterGather proves routing: a cross-shard gather equals
// the per-key global expectation, and scatters land on the owning shard.
func TestShardedClusterGather(t *testing.T) {
	const rows, dim, of = 200, 6, 3
	st := newCluster(t, rows, dim, of, 1)

	keys := make([]uint64, 0, rows)
	for k := uint64(0); k < rows; k++ {
		keys = append(keys, k)
	}
	got := make([]float32, len(keys)*dim)
	if err := st.Gather(keys, got, nil); err != nil {
		t.Fatal(err)
	}
	want := make([]float32, dim)
	for _, k := range keys {
		testInit(k, want)
		for j := 0; j < dim; j++ {
			if got[int(k)*dim+j] != want[j] {
				t.Fatalf("key %d dim %d = %v, want %v", k, j, got[int(k)*dim+j], want[j])
			}
		}
	}

	// A scatter through the composed store must reach the owner: bump one
	// key per shard and read back through the single-key path.
	upd := make([]store.KeyDelta, 3)
	for i := range upd {
		delta := make([]float32, dim)
		delta[0] = 100
		upd[i] = store.KeyDelta{Key: uint64(i), Delta: delta}
	}
	if err := st.Scatter(0, upd); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, st, 0)
	row := make([]float32, dim)
	for i := range upd {
		if _, err := st.FlushKey(uint64(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ReadRow(uint64(i), row); err != nil {
			t.Fatal(err)
		}
		testInit(uint64(i), want)
		if math.Abs(float64(row[0]-(want[0]+100))) > 1e-6 {
			t.Fatalf("key %d row[0] = %v, want %v", i, row[0], want[0]+100)
		}
	}
}

// TestShardedWatermarkIsMin proves the composition rule: the global
// watermark is the minimum over shards, and the empty scatter is the
// commit signal that lets a shard without updates advance.
func TestShardedWatermarkIsMin(t *testing.T) {
	const rows, dim, of = 90, 4, 3
	nodes := make([]store.Store, of)
	for i := range nodes {
		n, err := shard.NewNode(shard.NodeOptions{Rows: rows, Dim: dim, Shard: i, Of: of, Trainers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
	}
	st, err := store.NewSharded(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if st.Watermark() != -1 {
		t.Fatalf("initial watermark = %d, want -1", st.Watermark())
	}

	// Commit step 0 on shards 0 and 1 only: the composed minimum must
	// stay -1 because shard 2 has not committed.
	for i := 0; i < 2; i++ {
		if err := nodes[i].Scatter(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitWatermark(t, nodes[0], 0)
	waitWatermark(t, nodes[1], 0)
	time.Sleep(3 * wmTTL()) // let the compose cache expire
	if wm := st.Watermark(); wm != -1 {
		t.Fatalf("watermark with a lagging shard = %d, want -1", wm)
	}

	// The empty scatter through the composed store reaches every shard —
	// including shard 2, whose batch had no keys — and the minimum rises.
	if err := st.Scatter(0, nil); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, st, 0)
}

// wmTTL mirrors store.wmCacheTTL without exporting it.
func wmTTL() time.Duration { return 2 * time.Millisecond }

func waitWatermark(t *testing.T, st store.Store, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.Watermark() < want {
		if time.Now().After(deadline) {
			t.Fatalf("watermark stuck at %d, want ≥ %d", st.Watermark(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedTopKMergesShards checks the fan-out merge: the composed
// top-K over 3 shards equals a global scan's best k.
func TestShardedTopKMergesShards(t *testing.T) {
	const rows, dim, of = 120, 4, 3
	st := newCluster(t, rows, dim, of, 1)

	query := make([]float32, dim)
	query[0], query[1] = 1, 0.5
	got, err := st.TopK(context.Background(), query, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("topk returned %d results, want 7", len(got))
	}
	// Brute-force expectation over the init pattern.
	type kv struct {
		key   uint64
		score float32
	}
	all := make([]kv, rows)
	row := make([]float32, dim)
	for k := uint64(0); k < rows; k++ {
		testInit(k, row)
		var s float32
		for j := range row {
			s += row[j] * query[j]
		}
		all[k] = kv{k, s}
	}
	for i := range got {
		best := all[0]
		for _, c := range all[1:] {
			if c.score > best.score || (c.score == best.score && c.key < best.key) {
				best = c
			}
		}
		if got[i].Key != best.key {
			t.Fatalf("topk[%d] = key %d (%v), want key %d (%v)", i, got[i].Key, got[i].Score, best.key, best.score)
		}
		for j := range all {
			if all[j].key == best.key {
				all[j].score = float32(math.Inf(-1))
			}
		}
	}
}

// TestUncoordinatedNode covers the write-through mode training slabs
// use: no gate, immediate applies, degenerate watermark surface.
func TestUncoordinatedNode(t *testing.T) {
	node, err := shard.NewNode(shard.NodeOptions{Rows: 16, Dim: 4, Uncoordinated: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.Coordinated() {
		t.Fatal("uncoordinated node reports coordinated")
	}
	delta := []float32{1, 2, 3, 4}
	if err := node.Scatter(0, []store.KeyDelta{{Key: 2, Delta: delta}}); err != nil {
		t.Fatal(err)
	}
	row := make([]float32, 4)
	v, err := node.ReadRow(2, row)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("version after one write-through = %d, want 1", v)
	}
	for j := range row {
		if row[j] != delta[j] {
			t.Fatalf("row = %v, want %v", row, delta)
		}
	}
	if wm := node.Watermark(); wm != -1 {
		t.Fatalf("uncoordinated watermark = %d, want -1", wm)
	}
	lag, wm, err := node.RowStaleness(2)
	if err != nil || lag != 0 || wm != -1 {
		t.Fatalf("RowStaleness = (%d, %d, %v), want (0, -1, nil)", lag, wm, err)
	}
}

// TestTrainerOverCluster runs the store-level training loop against a
// wire-connected 3-shard cluster and checks convergence plus watermark
// progress — the end-to-end smoke test `frugal-shard -connect` scripts.
func TestTrainerOverCluster(t *testing.T) {
	const rows, dim, steps = 48, 4, 60
	st := newCluster(t, rows, dim, 1, 1)
	if err := store.RunTrainer(context.Background(), st, store.TrainerConfig{
		Steps: steps, LR: 0.5, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	waitWatermark(t, st, steps-1)
	// Full sweeps with lr 0.5 for 60 steps pull every row essentially
	// onto its attractor.
	row := make([]float32, dim)
	for k := uint64(0); k < rows; k++ {
		if _, err := st.FlushKey(k); err != nil {
			t.Fatal(err)
		}
		if _, err := st.ReadRow(k, row); err != nil {
			t.Fatal(err)
		}
	}
	var fromZero float32
	for j := range row {
		fromZero += row[j] * row[j]
	}
	if fromZero < 0.5 {
		t.Fatalf("trained row is near zero (%v) — updates did not land", row)
	}
}
