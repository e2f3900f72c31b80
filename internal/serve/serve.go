// Package serve is Frugal's online serving layer: a concurrent query
// engine that answers embedding lookups and top-K dot-product similarity
// queries straight from the host-memory parameter slab, while training is
// still running.
//
// Host memory is the natural serving store under P²F (§3): proactive
// flushing keeps it the freshest complete copy of every parameter, so no
// GPU cache needs to be consulted. What host memory does *not* promise is
// zero lag — a row's most recent committed updates may still sit in its
// g-entry's write set, waiting for a flushing thread. The engine exposes
// that lag as a consistency knob with three levels:
//
//   - Stale: read the host row as-is. No coordination with the
//     controller; the row may lag the training frontier by however much
//     the flusher pool is behind (in practice: very little, that is the
//     point of P²F).
//   - Bounded(k): admit the read only if the row's pending writes lag the
//     committed-step watermark by at most k gate steps (HET-style per-row
//     staleness bound). A violating row is force-flushed first — or, with
//     Options.RejectStale, the read is refused.
//   - Fresh: always force-flush the row's pending write set before
//     reading, so the returned row reflects every committed update. The
//     flush rides the controller's AdjustPriority path (see
//     p2f.Controller.FlushKey).
//
// Every read — including Stale — copies the row under its stripe lock
// (Host.ReadRow), the same lock the flusher write path takes, so a served
// row is never a torn mix of two updates and the engine is race-free
// beside any engine's writers. "Stale" spares the coordination metadata,
// not the memory safety.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"frugal/internal/obs"
	"frugal/internal/p2f"
	"frugal/internal/runtime"
	"frugal/internal/store"
	"frugal/internal/tensor"
)

// Kind enumerates the consistency levels.
type Kind int

const (
	// KindStale reads host memory with zero controller coordination.
	KindStale Kind = iota
	// KindBounded admits rows lagging the watermark by at most Bound steps.
	KindBounded
	// KindFresh force-flushes pending writes before every read.
	KindFresh
)

// Level is a consistency level: a kind plus, for KindBounded, the
// staleness bound in gate steps. The zero Level is Stale.
type Level struct {
	Kind  Kind
	Bound int64
}

// Stale returns the zero-coordination level.
func Stale() Level { return Level{Kind: KindStale} }

// Bounded returns the level admitting at most k gate steps of flush lag.
func Bounded(k int64) Level { return Level{Kind: KindBounded, Bound: k} }

// Fresh returns the force-flush-before-read level.
func Fresh() Level { return Level{Kind: KindFresh} }

// ParseLevel parses "stale", "fresh", "bounded" (= bounded(0)) or
// "bounded(k)" with k ≥ 0.
func ParseLevel(s string) (Level, error) {
	switch s {
	case "stale":
		return Stale(), nil
	case "fresh":
		return Fresh(), nil
	case "bounded":
		return Bounded(0), nil
	}
	if rest, ok := strings.CutPrefix(s, "bounded("); ok {
		if num, ok := strings.CutSuffix(rest, ")"); ok {
			k, err := strconv.ParseInt(num, 10, 64)
			if err != nil || k < 0 {
				return Level{}, fmt.Errorf("serve: bad staleness bound %q (want an integer ≥ 0)", num)
			}
			return Bounded(k), nil
		}
	}
	return Level{}, fmt.Errorf("serve: unknown consistency level %q (want stale, bounded(k) or fresh)", s)
}

// String renders the level in ParseLevel's syntax.
func (l Level) String() string {
	switch l.Kind {
	case KindStale:
		return "stale"
	case KindBounded:
		return "bounded(" + strconv.FormatInt(l.Bound, 10) + ")"
	case KindFresh:
		return "fresh"
	}
	return fmt.Sprintf("level(%d)", int(l.Kind))
}

// Validate reports whether the level is well-formed.
func (l Level) Validate() error {
	switch l.Kind {
	case KindStale, KindFresh:
		return nil
	case KindBounded:
		if l.Bound < 0 {
			return fmt.Errorf("serve: staleness bound must be ≥ 0, got %d", l.Bound)
		}
		return nil
	}
	return fmt.Errorf("serve: unknown consistency level kind %d", int(l.Kind))
}

// Options configures an Engine.
type Options struct {
	// Default is the consistency level applied when a request does not
	// name one (the HTTP API's ?level= parameter). Zero value: Stale.
	Default Level
	// RejectStale makes Bounded lookups return *ErrTooStale instead of
	// force-flushing a row that exceeds the bound. Top-K queries always
	// refresh (dropping candidates would silently change the result set).
	RejectStale bool
	// MaxTopK caps the K of top-K queries (default 128).
	MaxTopK int
	// Shards sizes the metrics counters (default 8).
	Shards int

	// MaxInflight caps the engine's concurrent admitted work, in lookup
	// units: a lookup costs 1, a top-K query costs TopKWeight. 0 disables
	// admission control entirely (the pre-overload-control behaviour).
	MaxInflight int
	// TopKWeight is the admission cost of one top-K query relative to a
	// lookup (default 8). Must not exceed MaxInflight, or no top-K query
	// could ever be admitted.
	TopKWeight int
	// AdmitWait bounds how long a request may wait for admission before
	// being shed (default 5ms). Shed requests fail with *ErrShed — they
	// are never queued unboundedly.
	AdmitWait time.Duration
	// MaxWaiters caps the admission wait queue (default 4×MaxInflight).
	// Arrivals beyond it are shed immediately, without waiting.
	MaxWaiters int
	// RequestTimeout is the per-request deadline the HTTP handlers attach
	// to each request context (0: none). Direct Query callers manage
	// their own deadlines.
	RequestTimeout time.Duration

	// Index selects the top-K scan strategy: IndexFlat (or IndexAuto,
	// the zero value) scans the whole slab; IndexIVF builds the
	// inverted-file index at engine construction and scans only the
	// NProbe nearest of Centroids partitions (see ivf.go).
	Index IndexKind
	// Centroids is the IVF partition count C (default ≈ 4√rows, clamped
	// to [16, 65536]). Ignored unless Index is IndexIVF.
	Centroids int
	// NProbe is how many partitions an IVF query scans (default 8,
	// clamped to Centroids). Per-request override: Request.NProbe.
	NProbe int
}

// Validate reports whether New, NewStatic and NewFromStore would accept
// the options, so a caller that must load or dial a store first can
// reject bad options before that work.
func (o Options) Validate() error { return o.normalize() }

func (o *Options) normalize() error {
	if err := o.Default.Validate(); err != nil {
		return err
	}
	if o.MaxTopK == 0 {
		o.MaxTopK = 128
	}
	if o.MaxTopK < 1 {
		return fmt.Errorf("serve: MaxTopK must be ≥ 1, got %d", o.MaxTopK)
	}
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.MaxInflight < 0 {
		return fmt.Errorf("serve: MaxInflight must be ≥ 0, got %d", o.MaxInflight)
	}
	if o.MaxInflight > 0 {
		if o.TopKWeight == 0 {
			o.TopKWeight = 8
		}
		if o.TopKWeight < 1 {
			return fmt.Errorf("serve: TopKWeight must be ≥ 1, got %d", o.TopKWeight)
		}
		if o.TopKWeight > o.MaxInflight {
			return fmt.Errorf("serve: TopKWeight %d exceeds MaxInflight %d — no top-K query could ever be admitted",
				o.TopKWeight, o.MaxInflight)
		}
		if o.AdmitWait == 0 {
			o.AdmitWait = 5 * time.Millisecond
		}
		if o.AdmitWait < 0 {
			return fmt.Errorf("serve: AdmitWait must be ≥ 0, got %v", o.AdmitWait)
		}
		if o.MaxWaiters == 0 {
			o.MaxWaiters = 4 * o.MaxInflight
		}
		if o.MaxWaiters < 0 {
			return fmt.Errorf("serve: MaxWaiters must be ≥ 0, got %d", o.MaxWaiters)
		}
	}
	if o.RequestTimeout < 0 {
		return fmt.Errorf("serve: RequestTimeout must be ≥ 0, got %v", o.RequestTimeout)
	}
	if err := o.Index.Validate(); err != nil {
		return err
	}
	if o.Centroids < 0 {
		return fmt.Errorf("serve: Centroids must be ≥ 0, got %d", o.Centroids)
	}
	if o.NProbe < 0 {
		return fmt.Errorf("serve: NProbe must be ≥ 0, got %d", o.NProbe)
	}
	if o.Index != IndexIVF && (o.Centroids > 0 || o.NProbe > 0) {
		return fmt.Errorf("serve: Centroids/NProbe are IVF knobs; set Index: IndexIVF")
	}
	return nil
}

// replicaStore is the surface a serve-follower store adds to store.Store:
// applying more of the delta-checkpoint log is the replica's only freshness
// lever (the primary's pending write sets are out of reach).
type replicaStore interface {
	CatchUp() error
}

// ErrTooStale reports a Bounded read refused under Options.RejectStale:
// the row's pending writes lagged the watermark by Staleness > Bound.
type ErrTooStale struct {
	Key       uint64
	Staleness int64
	Bound     int64
	Watermark int64
}

func (e *ErrTooStale) Error() string {
	return fmt.Sprintf("serve: key %d is %d gate steps stale (bound %d, watermark %d)",
		e.Key, e.Staleness, e.Bound, e.Watermark)
}

// RowMeta describes the consistency state of one served row.
type RowMeta struct {
	// Version is the host row's update counter, read in the same critical
	// section as the row copy.
	Version uint64 `json:"version"`
	// Watermark is the committed-step watermark the consistency decision
	// used (-1 when no controller is attached — synchronous engines and
	// checkpoint serving, whose host copy is always authoritative).
	Watermark int64 `json:"watermark"`
	// Staleness bounds how many committed gate steps the row may lag the
	// watermark. 0 means every update committed at or before Watermark is
	// in the returned values.
	Staleness int64 `json:"staleness"`
	// Refreshed reports that a force-flush ran to satisfy the level.
	Refreshed bool `json:"refreshed,omitempty"`
}

// Candidate is one top-K result row.
type Candidate struct {
	Key   uint64  `json:"key"`
	Score float32 `json:"score"`
	Meta  RowMeta `json:"meta"`
}

// topkChunk is the slab stride of the top-K scan: large enough to amortise
// the batched kernel, small enough that the locked variant never holds a
// stripe lock across more than one row.
const topkChunk = 256

type topkScratch struct {
	scores []float32
	row    []float32
	heap   []Candidate
	// IVF engines only: centroid scores and probe selection.
	cent   []float32
	probes []int
}

// Engine serves reads from one parameter store — the in-process slab of
// a training job or checkpoint (LocalStore), or a sharded remote table
// composed behind the same interface. Safe for concurrent use by any
// number of goroutines, concurrently with trainers writing the store.
type Engine struct {
	st store.Store
	// host is the underlying slab when the store is slab-backed (every
	// local store and the follower's replica), nil for remote/sharded
	// stores. Only top-K selection uses it: the batched flat scan and
	// the IVF index. Remote stores select through store.Store.TopK
	// (per-shard scan + merge) instead; every row read of the
	// consistency path goes through the store.
	host        *runtime.Host
	coordinated bool // the store has a P²F gate (watermark is meaningful)
	// replica is non-nil when the store is a serve follower tailing a
	// delta-checkpoint log: it cannot flush the primary's pending writes,
	// only apply more of the log. The resolver then substitutes CatchUp
	// for FlushKey.
	replica replicaStore
	opt     Options
	static  bool // no live writers: top-K may scan the slab unlocked
	sobs    *obs.ServeObs
	adm     *admission // nil: admission control disabled
	idx     *ivfIndex  // nil: flat scans only

	scratch sync.Pool // *topkScratch
}

// New builds an engine over a live training job's host slab. ctrl is the
// job's P²F controller; pass nil for the synchronous engines (direct,
// frugal-sync), whose host copy never lags — every level is then trivially
// fresh.
func New(host *runtime.Host, ctrl *p2f.Controller, opt Options) (*Engine, error) {
	if host == nil {
		return nil, fmt.Errorf("serve: nil host")
	}
	st, err := store.NewLocal(host, ctrl)
	if err != nil {
		return nil, err
	}
	return newEngine(st, opt, false)
}

// NewStatic builds an engine over a quiescent slab — a loaded checkpoint,
// or a finished job. Top-K scans then use the unlocked batched kernel.
func NewStatic(host *runtime.Host, opt Options) (*Engine, error) {
	if host == nil {
		return nil, fmt.Errorf("serve: nil host")
	}
	st, err := store.NewLocal(host, nil)
	if err != nil {
		return nil, err
	}
	return newEngine(st, opt, true)
}

// NewFromStore builds an engine over any parameter store — including a
// sharded remote table. The store is assumed live (trainers may be
// writing); remote top-K queries fan out per shard through the store.
func NewFromStore(st store.Store, opt Options) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	return newEngine(st, opt, false)
}

func newEngine(st store.Store, opt Options, static bool) (*Engine, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	e := &Engine{st: st, coordinated: st.Coordinated(), opt: opt, static: static, sobs: obs.NewServeObs(opt.Shards)}
	// A key-mapped store (a shard node) reports a nil host: its slab
	// index is not the global key, so it selects through Store.TopK.
	if sb, ok := st.(interface{ Host() *runtime.Host }); ok {
		e.host = sb.Host()
	}
	if rs, ok := st.(replicaStore); ok {
		e.replica = rs
	}
	if opt.MaxInflight > 0 {
		e.adm = newAdmission(int64(opt.MaxInflight), opt.AdmitWait, opt.MaxWaiters)
	}
	dim := st.Dim()
	centroids := 0
	if opt.Index == IndexIVF {
		host := e.host
		if host == nil {
			return nil, fmt.Errorf("serve: the IVF index requires a slab-backed (local) store; sharded stores answer top-K per shard")
		}
		centroids = opt.Centroids
		if centroids == 0 {
			centroids = 4 * int(math.Sqrt(float64(host.Rows())))
			centroids = max(16, min(centroids, 65536))
		}
		if int64(centroids) > host.Rows() {
			centroids = int(host.Rows())
		}
		nprobe := opt.NProbe
		if nprobe == 0 {
			nprobe = 8
		}
		idx := newIVFIndex(host.Rows(), dim, centroids, nprobe)
		// The flush hook is installed before the build walks the slab:
		// a flush landing mid-build enqueues a repair, so nothing the
		// build misses goes unrecorded. The hook pairs the key with the
		// watermark current at flush time — the bound repair enforces.
		if e.coordinated {
			fh, ok := st.(store.FlushHooker)
			if !ok {
				return nil, fmt.Errorf("serve: coordinated store %T has no flush feed for the IVF index", st)
			}
			fh.AddFlushHook(func(key uint64) {
				idx.markDirty(key, st.Watermark())
			})
		}
		idx.build(host)
		e.idx = idx
		centroids = len(idx.parts)
	}
	e.scratch.New = func() any {
		sc := &topkScratch{scores: make([]float32, topkChunk), row: make([]float32, dim)}
		if centroids > 0 {
			sc.cent = make([]float32, centroids)
			sc.probes = make([]int, centroids)
		}
		return sc
	}
	return e, nil
}

// Rows returns the number of servable rows.
func (e *Engine) Rows() int64 { return e.st.Rows() }

// Dim returns the embedding dimension.
func (e *Engine) Dim() int { return e.st.Dim() }

// NumShards reports the store's shard count: >1 for sharded stores, 1
// otherwise.
func (e *Engine) NumShards() int {
	if sc, ok := e.st.(store.ShardCounter); ok {
		return sc.NumShards()
	}
	return 1
}

// Live reports whether the slab may have concurrent writers.
func (e *Engine) Live() bool { return !e.static }

// DefaultLevel returns the engine's default consistency level.
func (e *Engine) DefaultLevel() Level { return e.opt.Default }

// Metrics snapshots the engine's read-path counters and latency
// histograms.
func (e *Engine) Metrics() obs.ServeSnapshot { return e.sobs.Snapshot() }

// admitClass claims one admission slot of the class's weight, recording
// the shed/canceled outcome. The uncontended path allocates nothing.
func (e *Engine) admitClass(ctx context.Context, class string, shard int) (int64, error) {
	if e.adm == nil {
		return 0, nil
	}
	need := int64(1)
	if class == classTopK {
		need = int64(e.opt.TopKWeight)
	}
	if err := e.adm.Acquire(ctx, need, class); err != nil {
		var shed *ErrShed
		if errors.As(err, &shed) {
			e.sobs.Shed(shard)
		} else {
			e.sobs.Canceled(shard)
		}
		return 0, err
	}
	return need, nil
}

// exit releases an admitted request's slot (no-op when admission is off).
func (e *Engine) exit(need int64) {
	if e.adm != nil {
		e.adm.Release(need)
	}
}

// Inflight reports the admitted work units currently in the engine, in
// lookup units (0 when admission control is disabled).
func (e *Engine) Inflight() int64 {
	if e.adm == nil {
		return 0
	}
	return e.adm.Inflight()
}

// Request describes one query for Engine.Query — the single entrypoint
// both request shapes go through. A nil Vector makes it a point lookup
// of Key; a non-nil Vector makes it a top-K similarity query.
type Request struct {
	// Key is the row to read. Lookups only (Vector nil).
	Key uint64
	// Vector is the top-K query vector (len == Dim()); nil selects the
	// lookup shape.
	Vector []float32
	// K is the top-K result count, in [1, Options.MaxTopK]. Top-K only.
	K int
	// Dst, when non-nil, receives the looked-up row (len == Dim()) and
	// keeps the lookup allocation-free; when nil the engine allocates.
	// Lookups only.
	Dst []float32
	// Level is the consistency level. The zero Level is Stale; set
	// UseDefault to apply the engine's Options.Default instead.
	Level Level
	// UseDefault replaces Level with the engine's default level.
	UseDefault bool
	// Index picks the top-K scan strategy: IndexAuto (the zero value)
	// uses the engine's configuration, IndexFlat forces the exhaustive
	// scan (always available — the ground-truth fallback), IndexIVF
	// requires an engine built with Options.Index: IndexIVF.
	Index IndexKind
	// NProbe overrides the IVF probe width for this query (0: engine
	// default). IVF top-K only.
	NProbe int
}

// Response is Query's result. Lookups fill Values and Meta; top-K
// queries fill Results. Level and Index echo what was actually applied.
type Response struct {
	// Values is the looked-up row. It aliases Request.Dst when that was
	// provided.
	Values []float32
	// Meta is the looked-up row's consistency metadata.
	Meta RowMeta
	// Results are the top-K candidates, best first.
	Results []Candidate
	// Level is the effective consistency level.
	Level Level
	// Index is the effective scan strategy (top-K only; IndexAuto on
	// lookups).
	Index IndexKind
}

// Query answers one request — lookup or top-K, selected by Request's
// Vector field — at the requested consistency level and (for top-K) via
// the requested index.
//
// The lookup shape is allocation-free on the admitted path when
// Request.Dst is provided. Under admission control it may fail with
// *ErrShed; a canceled or expired ctx fails with the context's error,
// checked after the admission wait.
func (e *Engine) Query(ctx context.Context, req Request) (Response, error) {
	lvl := req.Level
	if req.UseDefault {
		lvl = e.opt.Default
	}
	if req.Vector == nil {
		if req.K != 0 {
			return Response{}, fmt.Errorf("serve: K is a top-K parameter; set Vector")
		}
		if req.Index != IndexAuto || req.NProbe != 0 {
			return Response{}, fmt.Errorf("serve: Index/NProbe are top-K parameters; set Vector")
		}
		dst := req.Dst
		if dst == nil {
			dst = make([]float32, e.st.Dim())
		}
		meta, err := e.lookup(ctx, req.Key, dst, lvl)
		if err != nil {
			return Response{}, err
		}
		return Response{Values: dst, Meta: meta, Level: lvl}, nil
	}
	if err := req.Index.Validate(); err != nil {
		return Response{}, err
	}
	kind := req.Index
	if kind == IndexAuto {
		kind = IndexFlat
		if e.idx != nil {
			kind = IndexIVF
		}
	}
	if kind == IndexIVF && e.idx == nil {
		return Response{}, fmt.Errorf("serve: no IVF index on this engine (build it with Options.Index: IndexIVF)")
	}
	if req.NProbe < 0 {
		return Response{}, fmt.Errorf("serve: NProbe must be ≥ 0, got %d", req.NProbe)
	}
	if req.NProbe > 0 && kind != IndexIVF {
		return Response{}, fmt.Errorf("serve: NProbe is an IVF parameter")
	}
	out, err := e.topK(ctx, req.Vector, req.K, lvl, kind, req.NProbe)
	if err != nil {
		return Response{}, err
	}
	return Response{Results: out, Level: lvl, Index: kind}, nil
}

// lookup is the point-read path: copy row `key` into dst (len(dst) ==
// Dim()) at the given consistency level and report the row's consistency
// metadata. Allocation-free on the admitted path — the serving hot path.
func (e *Engine) lookup(ctx context.Context, key uint64, dst []float32, lvl Level) (RowMeta, error) {
	start := time.Now()
	if key >= uint64(e.st.Rows()) {
		return RowMeta{}, fmt.Errorf("serve: key %d out of range (rows %d)", key, e.st.Rows())
	}
	if len(dst) != e.st.Dim() {
		return RowMeta{}, fmt.Errorf("serve: dst length %d, want dim %d", len(dst), e.st.Dim())
	}
	if err := lvl.Validate(); err != nil {
		return RowMeta{}, err
	}
	need, err := e.admitClass(ctx, classLookup, int(key))
	if err != nil {
		return RowMeta{}, err
	}
	defer e.exit(need)
	if err := ctx.Err(); err != nil {
		e.sobs.Canceled(int(key))
		return RowMeta{}, err
	}
	meta, err := e.resolve(key, lvl, false)
	if err == nil {
		// The version is read with the copy: everything the consistency
		// decision guaranteed is in dst, because rows only move forward.
		meta.Version, err = e.st.ReadRow(key, dst)
	}
	if err != nil {
		e.sobs.Rejected(int(key))
		return RowMeta{}, err
	}
	e.sobs.Lookup(int(key), time.Since(start))
	return meta, nil
}

// resolve is the engine's one consistency decision: for one key at one
// level it decides what the read may promise, pulling the store's lever
// — a force-flush on a primary, a log catch-up on a replica — when the
// promise needs it, and returns the key's metadata (Version is filled by
// the caller's subsequent read). candidate selects the one policy in
// which lookups and top-K candidates differ. A lookup may refuse: an
// over-bound row fails with *ErrTooStale on a replica after catching up,
// and on a primary under Options.RejectStale. A candidate is never
// dropped, since that would silently change the result set: it is
// force-flushed whatever RejectStale says, or reports the replica's
// residual lag. Fresh on a lagging replica fails with *ErrReplica either
// way.
//
// The watermark is always loaded *before* the row's write set is
// inspected or flushed, so the guarantee it anchors can only be
// exceeded, never violated, by the time the row is read. On sharded
// stores the watermark is the cross-shard minimum, which bends the same
// direction: it can only understate what has committed, never overstate
// it.
func (e *Engine) resolve(key uint64, lvl Level, candidate bool) (RowMeta, error) {
	if !e.coordinated {
		// No P²F lag exists: writes reach the store at commit time.
		return RowMeta{Watermark: -1}, nil
	}
	var lag, wm int64
	var err error
	switch lvl.Kind {
	case KindStale:
		return RowMeta{Watermark: e.st.Watermark(), Staleness: e.staleBound()}, nil
	case KindBounded:
		if lag, wm, err = e.st.RowStaleness(key); err != nil {
			return RowMeta{}, err
		}
		if lag <= lvl.Bound {
			return RowMeta{Watermark: wm, Staleness: lag}, nil
		}
	default: // KindFresh
		wm = e.st.Watermark()
	}
	if e.replica != nil {
		// A replica cannot flush the primary's pending writes: catch the
		// log up once and re-probe. Whatever lag remains only the primary
		// can close. A promoted replica is authoritative: lag 0 by
		// definition.
		if err := e.replica.CatchUp(); err != nil {
			return RowMeta{}, err
		}
		lag, wm, err = e.st.RowStaleness(key)
		switch {
		case err != nil:
			return RowMeta{}, err
		case lvl.Kind == KindFresh && lag > 0:
			return RowMeta{}, &ErrReplica{Key: key, Staleness: lag, Watermark: wm}
		case lvl.Kind == KindBounded && lag > lvl.Bound && !candidate:
			return RowMeta{}, &ErrTooStale{Key: key, Staleness: lag, Bound: lvl.Bound, Watermark: wm}
		}
		return RowMeta{Watermark: wm, Staleness: lag}, nil
	}
	if lvl.Kind == KindBounded && e.opt.RejectStale && !candidate {
		return RowMeta{}, &ErrTooStale{Key: key, Staleness: lag, Bound: lvl.Bound, Watermark: wm}
	}
	// Coalesced: N concurrent readers of one hot stale key trigger one
	// urgent flush, not N storms on the controller mutex the trainers'
	// gate depends on.
	refreshed, err := e.st.FlushKey(key)
	if err != nil {
		return RowMeta{}, err
	}
	// An over-bound row had writes pending at the probe; whichever flush
	// drained them, the read was refreshed.
	if refreshed = refreshed || lvl.Kind == KindBounded; refreshed {
		e.sobs.Refreshed(int(key))
	}
	return RowMeta{Watermark: wm, Refreshed: refreshed}, nil
}

// staleBound is the staleness reported for uncoordinated reads: the row
// may lag by every step committed so far.
func (e *Engine) staleBound() int64 {
	if wm := e.st.Watermark(); wm >= 0 {
		return wm + 1
	}
	return 0
}

// topK answers a top-K similarity query (len(query) == Dim(), k in
// [1, MaxTopK]), ordered by descending score: selectTopK picks the
// winners, finish enforces the consistency level on each. The scan
// checks ctx between slab chunks and finish between candidates, so a
// slow wide query stops burning CPU the moment its client gives up.
// Under admission control a top-K query costs TopKWeight lookup units
// and may fail with *ErrShed.
func (e *Engine) topK(ctx context.Context, query []float32, k int, lvl Level, kind IndexKind, nprobe int) ([]Candidate, error) {
	start := time.Now()
	if len(query) != e.st.Dim() {
		return nil, fmt.Errorf("serve: query length %d, want dim %d", len(query), e.st.Dim())
	}
	if k < 1 || k > e.opt.MaxTopK {
		return nil, fmt.Errorf("serve: k must be in [1, %d], got %d", e.opt.MaxTopK, k)
	}
	if err := lvl.Validate(); err != nil {
		return nil, err
	}
	need, err := e.admitClass(ctx, classTopK, k)
	if err != nil {
		return nil, err
	}
	defer e.exit(need)
	rows := e.st.Rows()
	if int64(k) > rows {
		k = int(rows)
	}
	sc := e.scratch.Get().(*topkScratch)
	defer e.scratch.Put(sc)
	out, reread, err := e.selectTopK(ctx, query, k, lvl, kind, nprobe, sc)
	if err == nil {
		err = e.finish(ctx, query, out, lvl, reread, sc.row)
	}
	if err != nil {
		if ctx.Err() != nil {
			e.sobs.Canceled(k)
		} else {
			e.sobs.Rejected(k)
		}
		return nil, err
	}
	e.sobs.TopK(k, time.Since(start))
	return out, nil
}

// selectTopK picks the k winners by score, each with the row version its
// selection saw. A slab-backed engine scans its host: IndexFlat scores
// the whole slab (per-row stripe-locked on a live slab, one batched
// kernel per chunk on a static one), IndexIVF the nprobe partitions
// nearest to query after draining the repair queue as far as the level
// demands (see ivf.go). Any other store selects through Store.TopK.
// reread reports that the scores came from the IVF index's copies of a
// live slab, so finish must re-read them.
func (e *Engine) selectTopK(ctx context.Context, query []float32, k int, lvl Level, kind IndexKind, nprobe int, sc *topkScratch) (out []Candidate, reread bool, err error) {
	if e.host == nil {
		rs, err := e.st.TopK(ctx, query, k)
		if err != nil {
			return nil, false, err
		}
		out = make([]Candidate, len(rs))
		for i, r := range rs {
			out[i] = Candidate{Key: r.Key, Score: r.Score, Meta: RowMeta{Version: r.Version}}
		}
		return out, false, nil
	}
	var heap []Candidate
	if kind == IndexIVF {
		if e.coordinated {
			e.repairIndex(lvl)
		}
		if nprobe == 0 {
			nprobe = e.idx.nprobe
		}
		heap = e.idx.search(query, k, nprobe, sc)
	} else {
		heap, err = e.scanFlat(ctx, query, k, sc)
	}
	sc.heap = heap[:0]
	if err != nil {
		return nil, false, err
	}
	out = make([]Candidate, len(heap))
	for i, c := range heap {
		c.Meta.Version = e.host.Version(c.Key)
		out[i] = c
	}
	return out, kind == IndexIVF && !e.static, nil
}

// finish enforces the consistency level on the winners and orders them
// best first. Each winner is resolved as a lookup would be (but never
// refused, see resolve). Under bounded and fresh on a coordinated store,
// and wherever reread says the selection score came from index copies,
// the winner is then re-read and re-scored through the store, so the
// returned scores meet the level even though the scan ran at host (or
// index) freshness. ctx is checked between candidates: a resolve may
// force-flush, the expensive tail of the query.
func (e *Engine) finish(ctx context.Context, query []float32, out []Candidate, lvl Level, reread bool, row []float32) error {
	reread = reread || (e.coordinated && lvl.Kind != KindStale)
	for i := range out {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := &out[i]
		meta, err := e.resolve(c.Key, lvl, true)
		if err != nil {
			return err
		}
		meta.Version = c.Meta.Version
		if reread {
			if meta.Version, err = e.st.ReadRow(c.Key, row); err != nil {
				return err
			}
			c.Score = tensor.Dot(query, row)
		}
		c.Meta = meta
	}
	store.SortBest(out, candRank)
	return nil
}

func candRank(c Candidate) (float32, uint64) { return c.Score, c.Key }

// scanFlat is the exhaustive slab scan: every row scored, chunk by
// chunk, into a k-best heap built in sc.heap.
func (e *Engine) scanFlat(ctx context.Context, query []float32, k int, sc *topkScratch) ([]Candidate, error) {
	rows := e.host.Rows()
	heap := sc.heap[:0]
	for from := int64(0); from < rows; from += topkChunk {
		if err := ctx.Err(); err != nil {
			return heap, err
		}
		n := rows - from
		if n > topkChunk {
			n = topkChunk
		}
		scores := sc.scores[:n]
		if e.static {
			e.host.ScoreRows(query, from, scores)
		} else {
			e.host.ScoreRowsLocked(query, from, scores)
		}
		for i, s := range scores {
			if len(heap) < k || s >= heap[0].Score {
				heap = store.KeepBest(heap, k, Candidate{Key: uint64(from) + uint64(i), Score: s}, candRank)
			}
		}
	}
	return heap, nil
}

// repairIndex drains the IVF repair queue as far as lvl demands: stale
// pays only the opportunistic budget, bounded(k) everything recorded at
// watermark ≤ wm−k (the staleness invariant), fresh the whole queue.
func (e *Engine) repairIndex(lvl Level) {
	switch lvl.Kind {
	case KindStale:
		e.idx.repair(e.host, math.MinInt64, ivfRepairBudget)
	case KindBounded:
		e.idx.repair(e.host, e.st.Watermark()-lvl.Bound, ivfRepairBudget)
	default: // KindFresh
		e.idx.repair(e.host, math.MaxInt64, 0)
	}
}

// Index reports the engine's configured top-K scan strategy.
func (e *Engine) Index() IndexKind {
	if e.idx != nil {
		return IndexIVF
	}
	return IndexFlat
}

// IndexStats snapshots the IVF maintenance state. Kind is IndexFlat
// (with zero counters) when no IVF index is attached.
func (e *Engine) IndexStats() IndexStats {
	if e.idx == nil {
		return IndexStats{Kind: IndexFlat}
	}
	return e.idx.stats()
}
