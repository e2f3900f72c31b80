package serve_test

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"frugal/internal/ckpt"
	"frugal/internal/runtime"
	"frugal/internal/serve"
)

// logProber drives a ckpt.Writer in tests the way the P²F controller
// does in production: a settable watermark and per-key staleness.
type logProber struct {
	mu  sync.Mutex
	wm  int64
	lag map[uint64]int64
}

func (p *logProber) Watermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wm
}

func (p *logProber) RowStaleness(key uint64) (int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lag[key], p.wm
}

func (p *logProber) set(wm int64, lag map[uint64]int64) {
	p.mu.Lock()
	p.wm = wm
	p.lag = lag
	p.mu.Unlock()
}

// logFixture is a primary-side delta log under test control: mutate the
// host, seal segments with exact watermark/staleness, shut down.
type logFixture struct {
	dir  string
	host *runtime.Host
	pr   *logProber
	w    *ckpt.Writer
}

func newLogFixture(t *testing.T, rows int64, dim, compactEvery int) *logFixture {
	t.Helper()
	h, err := runtime.NewHost(rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	f := &logFixture{dir: t.TempDir(), host: h, pr: &logProber{}}
	f.w, err = ckpt.NewWriter(h, f.pr, ckpt.Options{
		Dir: f.dir, SweepInterval: time.Hour, CompactEvery: compactEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.w.Close() })
	return f
}

// seal mutates one key and cuts a segment at the given watermark/lag.
func (f *logFixture) seal(t *testing.T, key, ver uint64, wm int64, lag map[uint64]int64) {
	t.Helper()
	row := make([]float32, f.host.Dim())
	for i := range row {
		row[i] = float32(key)*10 + float32(ver)
	}
	f.host.SetRow(key, row, ver, 0)
	f.w.OnFlush(key)
	f.pr.set(wm, lag)
	if err := f.w.Sync(); err != nil {
		t.Fatal(err)
	}
}

func followerRead(t *testing.T, fl *serve.Follower, key uint64, lvl serve.Level) (serve.RowMeta, error) {
	t.Helper()
	dst := make([]float32, fl.Engine().Dim())
	resp, err := fl.Engine().Query(context.Background(), serve.Request{Key: key, Dst: dst, Level: lvl})
	return resp.Meta, err
}

// TestFollowerStalenessContract walks the replica through the
// consistency gate's three levels against a log with known lag: bounded
// admits with the honest residual staleness, fresh refuses with
// *ErrReplica while the replica lags, and promotion makes the replica
// authoritative (staleness 0 by definition).
func TestFollowerStalenessContract(t *testing.T) {
	f := newLogFixture(t, 8, 4, 0)
	// Key 2 flushed with one committed step still pending: safe step 4,
	// segment watermark 5 → replica lag 1.
	f.seal(t, 2, 3, 5, map[uint64]int64{2: 1})

	fl, err := serve.NewFollower(f.dir, serve.FollowerOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Role() != "follower" {
		t.Fatalf("role %q, want follower", fl.Role())
	}
	st := fl.Stats()
	if st.AppliedSeq != 1 || st.AppliedWatermark != 5 {
		t.Fatalf("stats %+v", st)
	}

	m, err := followerRead(t, fl, 2, serve.Bounded(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Staleness != 1 || m.Watermark != 5 || m.Version != 3 {
		t.Fatalf("bounded(1) meta %+v, want staleness 1, watermark 5, version 3", m)
	}

	var tooStale *serve.ErrTooStale
	if _, err := followerRead(t, fl, 2, serve.Bounded(0)); !errors.As(err, &tooStale) {
		t.Fatalf("bounded(0) on a lagging replica: %v, want *ErrTooStale", err)
	}

	var replica *serve.ErrReplica
	if _, err := followerRead(t, fl, 2, serve.Fresh()); !errors.As(err, &replica) {
		t.Fatalf("fresh on a lagging replica: %v, want *ErrReplica", err)
	}
	if replica.Key != 2 || replica.Staleness != 1 {
		t.Fatalf("replica error %+v", replica)
	}

	if err := fl.Promote(); err != nil {
		t.Fatal(err)
	}
	if fl.Role() != "primary" {
		t.Fatalf("role %q after promotion, want primary", fl.Role())
	}
	m, err = followerRead(t, fl, 2, serve.Fresh())
	if err != nil {
		t.Fatalf("fresh on the promoted replica: %v", err)
	}
	if m.Staleness != 0 || m.Version != 3 {
		t.Fatalf("promoted fresh meta %+v, want staleness 0 version 3", m)
	}
	if err := fl.Promote(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestFollowerRefusesIVF pins the follower's IVF refusal: the index is
// repaired from the primary's flush stream, which a replica never sees,
// so an IVF follower would serve from partitions nothing ever repairs.
func TestFollowerRefusesIVF(t *testing.T) {
	f := newLogFixture(t, 8, 4, 0)
	f.seal(t, 1, 1, 0, nil)
	_, err := serve.NewFollower(f.dir, serve.FollowerOptions{Engine: serve.Options{Index: serve.IndexIVF}})
	if err == nil || !strings.Contains(err.Error(), "has no flush feed for the IVF index") {
		t.Fatalf("IVF follower: %v, want the no-flush-feed refusal", err)
	}
}

// TestFollowerTailsAndSalvages covers the failover tail: segments sealed
// after the follower attached are picked up by CatchUp, and promotion
// recovers the complete prefix of a sweep the primary never sealed.
func TestFollowerTailsAndSalvages(t *testing.T) {
	f := newLogFixture(t, 8, 4, 0)
	f.seal(t, 1, 2, 1, nil)

	fl, err := serve.NewFollower(f.dir, serve.FollowerOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Sealed after attach: CatchUp applies it.
	f.seal(t, 3, 4, 2, nil)
	if err := fl.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if m, err := followerRead(t, fl, 3, serve.Bounded(0)); err != nil || m.Version != 4 {
		t.Fatalf("tailed segment read: meta %+v, err %v", m, err)
	}

	// The primary dies mid-sweep: segment 3 exists only as a .open temp
	// file. (Seal it for real, then put its bytes back under the temp
	// name — the exact on-disk state an interrupted rename leaves.)
	f.seal(t, 5, 9, 3, nil)
	if err := f.w.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := filepath.Join(f.dir, "seg-0000000003.dlog")
	if err := os.Rename(sealed, filepath.Join(f.dir, "seg-0000000003.open")); err != nil {
		t.Fatal(err)
	}

	if err := fl.Promote(); err != nil {
		t.Fatal(err)
	}
	st := fl.Stats()
	if st.Replication.Salvaged != 1 {
		t.Fatalf("salvaged %d records, want 1 (stats %+v)", st.Replication.Salvaged, st)
	}
	if m, err := followerRead(t, fl, 5, serve.Fresh()); err != nil || m.Version != 9 {
		t.Fatalf("salvaged read: meta %+v, err %v", m, err)
	}
}

// TestFollowerRejectsOutOfRangeKey seals a segment whose record key lies
// past the replica's slab: CatchUp must fail with the segment reader's
// error instead of indexing the slab (or its safe-step table) with it.
func TestFollowerRejectsOutOfRangeKey(t *testing.T) {
	f := newLogFixture(t, 8, 4, 0)
	fl, err := serve.NewFollower(f.dir, serve.FollowerOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f.seal(t, 3, 4, 1, nil)
	seg := filepath.Join(f.dir, "seg-0000000001.dlog")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The first record's key follows the 32-byte segment header.
	binary.LittleEndian.PutUint64(b[32:], 1<<40)
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	err = fl.CatchUp()
	if err == nil || !strings.Contains(err.Error(), "seg-0000000001.dlog") || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("CatchUp over a corrupt segment: err = %v", err)
	}
}

// TestFollowerResyncsAcrossCompaction puts the replica behind a
// compaction: the sealed segments it was tailing are folded and deleted,
// so CatchUp must restart from the newer base (and count a resync).
func TestFollowerResyncsAcrossCompaction(t *testing.T) {
	f := newLogFixture(t, 8, 4, 2)
	f.seal(t, 1, 2, 1, nil)

	fl, err := serve.NewFollower(f.dir, serve.FollowerOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Two more sweeps: the writer folds everything into base-3 and
	// deletes the segments the follower has (and has not) applied.
	f.seal(t, 2, 3, 2, nil)
	f.seal(t, 4, 5, 3, map[uint64]int64{4: 1})
	if err := fl.CatchUp(); err != nil {
		t.Fatal(err)
	}
	st := fl.Stats()
	if st.Replication.Resyncs < 1 {
		t.Fatalf("no resync recorded after compaction: %+v", st)
	}
	if st.AppliedSeq != 3 || st.AppliedWatermark != 3 {
		t.Fatalf("stats after resync %+v", st)
	}
	if m, err := followerRead(t, fl, 4, serve.Bounded(1)); err != nil || m.Version != 5 || m.Staleness != 1 {
		t.Fatalf("post-resync read: meta %+v, err %v", m, err)
	}
}

// TestFollowerRunPromotesOnIdle exercises the liveness path: with
// PromoteAfter set, Run notices the log has stopped growing and promotes
// on its own.
func TestFollowerRunPromotesOnIdle(t *testing.T) {
	f := newLogFixture(t, 8, 4, 0)
	f.seal(t, 1, 2, 1, nil)
	if err := f.w.Close(); err != nil {
		t.Fatal(err)
	}

	fl, err := serve.NewFollower(f.dir, serve.FollowerOptions{
		Poll: 5 * time.Millisecond, PromoteAfter: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := fl.Run(ctx); err != nil {
		t.Fatalf("Run: %v (promotion should end it cleanly)", err)
	}
	if fl.Role() != "primary" {
		t.Fatalf("role %q after idle window, want primary", fl.Role())
	}
}

// TestFollowerWaitForLog: without the grace option a follower on an
// empty directory fails fast; with it, it attaches once the primary's
// writer creates the base.
func TestFollowerWaitForLog(t *testing.T) {
	empty := t.TempDir()
	if _, err := serve.NewFollower(empty, serve.FollowerOptions{}); err == nil {
		t.Fatal("follower attached to an empty directory")
	}

	dir := t.TempDir()
	host, err := runtime.NewHost(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		w, err := ckpt.NewWriter(host, &logProber{}, ckpt.Options{Dir: dir, SweepInterval: time.Hour})
		if err == nil {
			w.Close()
		}
	}()
	fl, err := serve.NewFollower(dir, serve.FollowerOptions{
		Poll: 5 * time.Millisecond, WaitForLog: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Role() != "follower" {
		t.Fatalf("role %q", fl.Role())
	}
}

// newTieredLogFixture is newLogFixture over a tiered primary host.
func newTieredLogFixture(t *testing.T, rows int64, dim int, hotFrac float64, compactEvery int) *logFixture {
	t.Helper()
	h, err := runtime.NewTieredHost(rows, dim, hotFrac)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(k uint64, row []float32) {
		for i := range row {
			row[i] = float32(k)*0.25 + float32(i)*0.0625
		}
	})
	f := &logFixture{dir: t.TempDir(), host: h, pr: &logProber{}}
	f.w, err = ckpt.NewWriter(h, f.pr, ckpt.Options{
		Dir: f.dir, SweepInterval: time.Hour, CompactEvery: compactEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.w.Close() })
	return f
}

// TestFollowerTieredLog replays a tiered primary's log into a replica:
// the replica host must come up tiered, its bytes — hot pool, cold
// codes, tier map — identical to the primary's, and top-K over the
// mixed-precision slab must agree with the full-precision ranking on
// the re-scored winners.
func TestFollowerTieredLog(t *testing.T) {
	const rows, dim = 96, 16
	f := newTieredLogFixture(t, rows, dim, 0.125, 0) // 12 hot slots
	f.seal(t, 3, 1, 0, nil)                          // hot row
	f.seal(t, 70, 1, 1, nil)                         // cold row

	// Tier churn between segments: promote 70, demoting a head row; the
	// move hook marks both keys, the next seal captures the new tags.
	for i := 0; i < 4 && f.host.TierStats().Promotions == 0; i++ {
		f.host.TierMaintain(70, false)
	}
	if f.host.TierStats().Promotions == 0 {
		t.Fatal("no promotion: fixture drives nothing")
	}
	f.seal(t, 80, 1, 2, nil)

	fl, err := serve.NewFollower(f.dir, serve.FollowerOptions{Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.CatchUp(); err != nil {
		t.Fatal(err)
	}

	// Every replica row must equal the primary's exactly — cold rows
	// dequantize identical codes on both sides, so even the quantization
	// error is reproduced bit for bit.
	want := make([]float32, dim)
	for k := uint64(0); k < rows; k++ {
		f.host.ReadRow(k, want)
		got := make([]float32, dim)
		if _, err := fl.Engine().Query(context.Background(), serve.Request{Key: k, Dst: got, Level: serve.Stale()}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("row %d[%d]: replica %v, primary %v", k, i, got[i], want[i])
			}
		}
	}

	// Quantized scan, full-precision rescore: every returned winner's
	// score must match a direct dot product against the primary's row.
	query := make([]float32, dim)
	for i := range query {
		query[i] = float32(i%5) * 0.2
	}
	resp, err := fl.Engine().Query(context.Background(), serve.Request{Vector: query, K: 8, Level: serve.Stale()})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 8 {
		t.Fatalf("got %d candidates, want 8", len(resp.Results))
	}
	row := make([]float32, dim)
	for _, c := range resp.Results {
		f.host.ReadRow(c.Key, row)
		var exact float32
		for i := range row {
			exact += query[i] * row[i]
		}
		diff := float64(c.Score - exact)
		if diff < 0 {
			diff = -diff
		}
		tol := 1e-5 * float64(exact)
		if tol < 0 {
			tol = -tol
		}
		if tol < 1e-4 {
			tol = 1e-4
		}
		if diff > tol {
			t.Fatalf("key %d: served score %v, exact %v", c.Key, c.Score, exact)
		}
	}
}
