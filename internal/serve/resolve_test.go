package serve_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"frugal/internal/p2f"
	"frugal/internal/runtime"
	"frugal/internal/serve"
)

// The resolver matrix pins the engine's consistency decision for both
// request shapes — a lookup and a top-K candidate — on every kind of
// store: uncoordinated, a coordinated primary, and a replica that can
// only catch up on the log. Every level is driven against one key whose
// lag is 3: within bound(3), over bound(1) with RejectStale off and on,
// stale and fresh. A lookup may refuse; a top-K candidate is never
// dropped — it is force-flushed (RejectStale does not apply) or, on a
// replica, reports its residual lag.

// resolveLevel is one column of the matrix.
type resolveLevel struct {
	name   string
	lvl    serve.Level
	reject bool // Options.RejectStale
}

var resolveLevels = []resolveLevel{
	{"stale", serve.Stale(), false},
	{"bounded-within", serve.Bounded(3), false},
	{"bounded-over", serve.Bounded(1), false},
	{"bounded-over-reject", serve.Bounded(1), true},
	{"fresh", serve.Fresh(), false},
}

// resolveOutcome is what one read of the pinned key must produce: its
// metadata, or exactly this error.
type resolveOutcome struct {
	meta serve.RowMeta
	err  error // nil, *serve.ErrTooStale or *serve.ErrReplica
}

func served(version uint64, wm, staleness int64, refreshed bool) resolveOutcome {
	return resolveOutcome{meta: serve.RowMeta{Version: version, Watermark: wm, Staleness: staleness, Refreshed: refreshed}}
}

func tooStale(key uint64, staleness, bound, wm int64) resolveOutcome {
	return resolveOutcome{err: &serve.ErrTooStale{Key: key, Staleness: staleness, Bound: bound, Watermark: wm}}
}

func replicaErr(key uint64, staleness, wm int64) resolveOutcome {
	return resolveOutcome{err: &serve.ErrReplica{Key: key, Staleness: staleness, Watermark: wm}}
}

// checkOutcome compares one read against its expectation: the error's
// type and every field, or every RowMeta field.
func checkOutcome(t *testing.T, what string, meta serve.RowMeta, err error, want resolveOutcome) {
	t.Helper()
	switch w := want.err.(type) {
	case nil:
		if err != nil {
			t.Fatalf("%s: %v, want meta %+v", what, err, want.meta)
		}
		if meta != want.meta {
			t.Fatalf("%s: meta %+v, want %+v", what, meta, want.meta)
		}
	case *serve.ErrTooStale:
		var got *serve.ErrTooStale
		if !errors.As(err, &got) || *got != *w {
			t.Fatalf("%s: %v, want *ErrTooStale %+v", what, err, *w)
		}
	case *serve.ErrReplica:
		var got *serve.ErrReplica
		if !errors.As(err, &got) || *got != *w {
			t.Fatalf("%s: %v, want *ErrReplica %+v", what, err, *w)
		}
	default:
		t.Fatalf("bad expectation %T", want.err)
	}
}

// TestResolverMatrixStore drives the matrix through a canned store: the
// pinned key lags by 3 at watermark 10; a replica's catch-up leaves lag
// 2 at watermark 11. The counters pin which lever each cell pulls — a
// primary flushes, a replica catches up, a refusing lookup does neither.
func TestResolverMatrixStore(t *testing.T) {
	const key, k = uint64(5), 4
	type cell struct {
		lookup, cand resolveOutcome
		// Lever calls per lookup and per top-K query of k candidates.
		lookupFlushes, candFlushes, lookupCatchUps, candCatchUps int64
	}
	unc := served(1, -1, 0, false)
	stores := []struct {
		name    string
		replica bool
		coord   bool
		cells   map[string]cell
	}{
		{"uncoordinated", false, false, map[string]cell{
			"stale":               {lookup: unc, cand: unc},
			"bounded-within":      {lookup: unc, cand: unc},
			"bounded-over":        {lookup: unc, cand: unc},
			"bounded-over-reject": {lookup: unc, cand: unc},
			"fresh":               {lookup: unc, cand: unc},
		}},
		{"primary", false, true, map[string]cell{
			"stale":               {lookup: served(1, 10, 11, false), cand: served(1, 10, 11, false)},
			"bounded-within":      {lookup: served(1, 10, 3, false), cand: served(1, 10, 3, false)},
			"bounded-over":        {lookup: served(1, 10, 0, true), cand: served(1, 10, 0, true), lookupFlushes: 1, candFlushes: k},
			"bounded-over-reject": {lookup: tooStale(key, 3, 1, 10), cand: served(1, 10, 0, true), candFlushes: k},
			"fresh":               {lookup: served(1, 10, 0, true), cand: served(1, 10, 0, true), lookupFlushes: 1, candFlushes: k},
		}},
		{"replica", true, true, map[string]cell{
			"stale":               {lookup: served(1, 10, 11, false), cand: served(1, 10, 11, false)},
			"bounded-within":      {lookup: served(1, 10, 3, false), cand: served(1, 10, 3, false)},
			"bounded-over":        {lookup: tooStale(key, 2, 1, 11), cand: served(1, 11, 2, false), lookupCatchUps: 1, candCatchUps: k},
			"bounded-over-reject": {lookup: tooStale(key, 2, 1, 11), cand: served(1, 11, 2, false), lookupCatchUps: 1, candCatchUps: k},
			// Every candidate lags, so the first one refuses the query.
			"fresh": {lookup: replicaErr(key, 2, 11), cand: replicaErr(0, 2, 11), lookupCatchUps: 1, candCatchUps: 1},
		}},
	}
	for _, sc := range stores {
		for _, rl := range resolveLevels {
			want := sc.cells[rl.name]
			t.Run(sc.name+"/"+rl.name, func(t *testing.T) {
				newEngine := func() (*gateStore, *serve.Engine) {
					gs := &gateStore{rows: 8, dim: 4, coordinated: sc.coord, lag: 3, wm: 10,
						flushed: true, caughtLag: 2, caughtWM: 11}
					if !sc.coord {
						gs.lag, gs.wm = 0, -1
					}
					opt := serve.Options{RejectStale: rl.reject}
					var eng *serve.Engine
					var err error
					if sc.replica {
						eng, err = serve.NewFromStore(replicaGate{gs}, opt)
					} else {
						eng, err = serve.NewFromStore(gs, opt)
					}
					if err != nil {
						t.Fatal(err)
					}
					return gs, eng
				}

				gs, eng := newEngine()
				resp, err := eng.Query(context.Background(), serve.Request{Key: key, Dst: make([]float32, 4), Level: rl.lvl})
				checkOutcome(t, "lookup", resp.Meta, err, want.lookup)
				if f, c := gs.flushes.Load(), gs.catchUps.Load(); f != want.lookupFlushes || c != want.lookupCatchUps {
					t.Fatalf("lookup pulled %d flushes and %d catch-ups, want %d and %d", f, c, want.lookupFlushes, want.lookupCatchUps)
				}

				gs, eng = newEngine()
				resp, err = eng.Query(context.Background(), serve.Request{Vector: []float32{1, 0, 0, 0}, K: k, Level: rl.lvl})
				if f, c := gs.flushes.Load(), gs.catchUps.Load(); f != want.candFlushes || c != want.candCatchUps {
					t.Fatalf("top-K pulled %d flushes and %d catch-ups, want %d and %d", f, c, want.candFlushes, want.candCatchUps)
				}
				if want.cand.err != nil {
					// Which candidate refuses first is the scan's order;
					// the refusal itself is pinned.
					var rep *serve.ErrReplica
					if errors.As(err, &rep) && rep.Key < k {
						rep.Key = 0
					}
					checkOutcome(t, "top-K", serve.RowMeta{}, err, want.cand)
					return
				}
				if err != nil {
					t.Fatalf("top-K: %v", err)
				}
				if len(resp.Results) != k {
					t.Fatalf("top-K returned %d candidates, want %d: a candidate was dropped", len(resp.Results), k)
				}
				seen := map[uint64]bool{}
				for _, c := range resp.Results {
					seen[c.Key] = true
					checkOutcome(t, fmt.Sprintf("candidate %d", c.Key), c.Meta, nil, want.cand)
				}
				if len(seen) != k {
					t.Fatalf("top-K keys %v, want %d distinct", resp.Results, k)
				}
			})
		}
	}
}

// matrixRow is the value every row of the local matrix slab holds.
func matrixRow(key uint64) []float32 { return []float32{float32(key), 1, 0, 0} }

// matrixHost is the local half's 8×4 slab: every row at version 1, the
// pinned key 2 at version 7.
func matrixHost(t *testing.T) *runtime.Host {
	t.Helper()
	h, err := runtime.NewHost(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 8; k++ {
		ver := uint64(1)
		if k == 2 {
			ver = 7
		}
		h.SetRow(k, matrixRow(k), ver, 0)
	}
	return h
}

// laggingController is a P²F controller whose flushers never run: key 2
// is committed at steps 2, 3 and 4 and stays pending, so at watermark 4
// it lags by 3 and a flush applies its 3 updates (version 7 → 10).
func laggingController(t *testing.T, host *runtime.Host) *p2f.Controller {
	t.Helper()
	ctrl, err := p2f.NewController(p2f.Options{
		MaxStep: 5, FlushThreads: 1,
		Sink:   p2f.FlushSinkFunc(host.ApplyWriteSets),
		Source: &stepSource{hot: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(0); s < 5; s++ {
		var upd []p2f.KeyDelta
		if s >= 2 {
			upd = []p2f.KeyDelta{{Key: 2, Delta: []float32{0, 0, 0, 1}}}
		}
		ctrl.CommitStep(s, upd)
	}
	if lag, wm := ctrl.RowStaleness(2); lag != 3 || wm != 4 {
		t.Fatalf("fixture: key 2 lag %d at watermark %d, want 3 at 4", lag, wm)
	}
	return ctrl
}

// laggingFollower is a serve follower whose key 2 lags by 3 at watermark
// 5 (version 3, every other row fresh at version 1). The primary then
// seals one more segment — key 2 at version 4 with lag 2, watermark
// unchanged — which only a catch-up applies.
func laggingFollower(t *testing.T, opt serve.Options) *serve.Follower {
	t.Helper()
	f := newLogFixture(t, 8, 4, 0)
	for k := uint64(0); k < 8; k++ {
		ver := uint64(1)
		if k == 2 {
			ver = 3
		}
		f.host.SetRow(k, matrixRow(k), ver, 0)
		f.w.OnFlush(k)
	}
	f.pr.set(5, map[uint64]int64{2: 3})
	if err := f.w.Sync(); err != nil {
		t.Fatal(err)
	}
	fl, err := serve.NewFollower(f.dir, serve.FollowerOptions{Poll: time.Hour, Engine: opt})
	if err != nil {
		t.Fatal(err)
	}
	f.host.SetRow(2, matrixRow(2), 4, 0)
	f.w.OnFlush(2)
	f.pr.set(5, map[uint64]int64{2: 2})
	if err := f.w.Sync(); err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestResolverMatrixLocal drives the same matrix through real slabs: an
// uncoordinated live engine, a primary whose controller holds key 2's
// writes pending, and a follower tailing a delta log. Top-K asks for
// every row, so the pinned key is always a candidate; the primary's
// other rows never lagged, the follower's are fresh at every level.
func TestResolverMatrixLocal(t *testing.T) {
	const key, rows = uint64(2), 8
	type cell struct {
		lookup, cand resolveOutcome // key 2
		other        resolveOutcome // every other candidate (Version is the row's: 1)
	}
	unc := served(7, -1, 0, false)
	uncOther := served(1, -1, 0, false)
	type engineKind struct {
		name  string
		ivf   bool
		build func(t *testing.T, opt serve.Options) *serve.Engine
		cells map[string]cell
	}
	uncoordinated := func(t *testing.T, opt serve.Options) *serve.Engine {
		eng, err := serve.New(matrixHost(t), nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	primary := func(t *testing.T, opt serve.Options) *serve.Engine {
		h := matrixHost(t)
		eng, err := serve.New(h, laggingController(t, h), opt)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	replica := func(t *testing.T, opt serve.Options) *serve.Engine {
		return laggingFollower(t, opt).Engine()
	}
	uncCells := map[string]cell{
		"stale":               {unc, unc, uncOther},
		"bounded-within":      {unc, unc, uncOther},
		"bounded-over":        {unc, unc, uncOther},
		"bounded-over-reject": {unc, unc, uncOther},
		"fresh":               {unc, unc, uncOther},
	}
	primaryCells := map[string]cell{
		"stale":               {served(7, 4, 5, false), served(7, 4, 5, false), served(1, 4, 5, false)},
		"bounded-within":      {served(7, 4, 3, false), served(7, 4, 3, false), served(1, 4, 0, false)},
		"bounded-over":        {served(10, 4, 0, true), served(10, 4, 0, true), served(1, 4, 0, false)},
		"bounded-over-reject": {tooStale(key, 3, 1, 4), served(10, 4, 0, true), served(1, 4, 0, false)},
		// Fresh flushes every candidate; only key 2 had anything pending.
		"fresh": {served(10, 4, 0, true), served(10, 4, 0, true), served(1, 4, 0, false)},
	}
	kinds := []engineKind{
		{"uncoordinated", false, uncoordinated, uncCells},
		{"uncoordinated-ivf", true, uncoordinated, uncCells},
		{"primary", false, primary, primaryCells},
		{"primary-ivf", true, primary, primaryCells},
		{"replica", false, replica, map[string]cell{
			"stale":               {served(3, 5, 6, false), served(3, 5, 6, false), served(1, 5, 6, false)},
			"bounded-within":      {served(3, 5, 3, false), served(3, 5, 3, false), served(1, 5, 0, false)},
			"bounded-over":        {tooStale(key, 2, 1, 5), served(4, 5, 2, false), served(1, 5, 0, false)},
			"bounded-over-reject": {tooStale(key, 2, 1, 5), served(4, 5, 2, false), served(1, 5, 0, false)},
			"fresh":               {replicaErr(key, 2, 5), replicaErr(key, 2, 5), resolveOutcome{}},
		}},
	}
	for _, ek := range kinds {
		for _, rl := range resolveLevels {
			want := ek.cells[rl.name]
			t.Run(ek.name+"/"+rl.name, func(t *testing.T) {
				opt := serve.Options{RejectStale: rl.reject}
				if ek.ivf {
					opt.Index = serve.IndexIVF
				}
				dst := make([]float32, 4)
				resp, err := ek.build(t, opt).Query(context.Background(), serve.Request{Key: key, Dst: dst, Level: rl.lvl})
				checkOutcome(t, "lookup", resp.Meta, err, want.lookup)

				resp, err = ek.build(t, opt).Query(context.Background(), serve.Request{Vector: []float32{1, 0, 0, 0}, K: rows, Level: rl.lvl})
				if want.cand.err != nil {
					checkOutcome(t, "top-K", serve.RowMeta{}, err, want.cand)
					return
				}
				if err != nil {
					t.Fatalf("top-K: %v", err)
				}
				if len(resp.Results) != rows {
					t.Fatalf("top-K returned %d candidates, want %d: a candidate was dropped", len(resp.Results), rows)
				}
				for i, c := range resp.Results {
					if c.Key != uint64(rows-1-i) {
						t.Fatalf("top-K order %v, want keys descending by score", resp.Results)
					}
					w := want.other
					if c.Key == key {
						w = want.cand
					}
					checkOutcome(t, fmt.Sprintf("candidate %d", c.Key), c.Meta, nil, w)
				}
			})
		}
	}
}
