package frugal

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"frugal/internal/obs"
	"frugal/internal/runtime"
	"frugal/internal/serve"
	"frugal/internal/serve/loadgen"
	"frugal/internal/shard"
	"frugal/internal/store"
)

// ServeLevel is a serving consistency level: ServeStale (read host memory
// as-is), ServeBounded(k) (admit at most k gate steps of flush lag), or
// ServeFresh (force-flush pending updates before every read).
type ServeLevel = serve.Level

// ServeStale returns the zero-coordination level.
func ServeStale() ServeLevel { return serve.Stale() }

// ServeBounded returns the level admitting at most k gate steps of lag.
func ServeBounded(k int64) ServeLevel { return serve.Bounded(k) }

// ServeFresh returns the force-flush-before-read level.
func ServeFresh() ServeLevel { return serve.Fresh() }

// ParseServeLevel parses "stale", "bounded", "bounded(k)" or "fresh".
func ParseServeLevel(s string) (ServeLevel, error) { return serve.ParseLevel(s) }

// ServeRowMeta is the consistency metadata of one served row.
type ServeRowMeta = serve.RowMeta

// ServeCandidate is one top-K similarity result.
type ServeCandidate = serve.Candidate

// ServeRequest is the one query shape Server.Query accepts: Key/Dst for
// a row lookup, Vector/K for a top-K similarity search, plus the
// consistency level and index selection knobs.
type ServeRequest = serve.Request

// ServeResponse is Server.Query's result: Values+Meta for lookups,
// Results for top-K, and the effective level and index kind.
type ServeResponse = serve.Response

// IndexKind selects the top-K scan strategy: IndexFlat (exhaustive,
// exact) or IndexIVF (inverted-file, sublinear). IndexAuto defers to the
// engine configuration.
type IndexKind = serve.IndexKind

// The index kinds, re-exported for ServeOptions and ServeRequest.
const (
	IndexAuto = serve.IndexAuto
	IndexFlat = serve.IndexFlat
	IndexIVF  = serve.IndexIVF
)

// ParseIndexKind parses "auto" (or ""), "flat" or "ivf".
func ParseIndexKind(s string) (IndexKind, error) { return serve.ParseIndexKind(s) }

// IndexStats is a snapshot of a server's IVF maintenance state (repair
// queue depth, oldest unrepaired watermark, repairs applied).
type IndexStats = serve.IndexStats

// ServeMetrics is a snapshot of a server's read-path metrics.
type ServeMetrics = obs.ServeSnapshot

// ErrTooStale is returned by bounded lookups on a RejectStale server when
// the row's flush lag exceeds the bound.
type ErrTooStale = serve.ErrTooStale

// ErrShed is returned when admission control refuses a query: the server
// was at MaxInflight and the bounded admission wait expired. Shed is the
// overload valve — back off for RetryAfter and retry.
type ErrShed = serve.ErrShed

// ServeOptions configures a Server.
type ServeOptions struct {
	// Level is the default consistency level (zero value: stale).
	Level ServeLevel
	// RejectStale refuses bounded lookups that exceed the bound instead
	// of force-flushing the row.
	RejectStale bool
	// MaxTopK caps top-K query sizes (default 128).
	MaxTopK int
	// MaxInflight caps concurrent admitted work in lookup units (a top-K
	// query costs 8 lookups); requests beyond it wait at most AdmitWait
	// and are then shed with *ErrShed. 0 disables admission control.
	MaxInflight int
	// AdmitWait bounds the admission wait (default 5ms when MaxInflight
	// is set).
	AdmitWait time.Duration
	// RequestTimeout is the per-request deadline the HTTP handlers attach
	// to every request (0: none).
	RequestTimeout time.Duration
	// Index selects the top-K scan strategy (default IndexFlat). IndexIVF
	// builds an inverted-file index over the slab at server construction;
	// queries then scan NProbe partitions instead of every row, with
	// index staleness bounded by the same consistency levels as reads.
	Index IndexKind
	// Centroids is the IVF partition count (default ≈ 4·√rows). Only
	// valid with Index: IndexIVF.
	Centroids int
	// NProbe is the number of partitions an IVF query scans (default 8).
	// Only valid with Index: IndexIVF.
	NProbe int
	// ColdTier loads the checkpoint into a frequency-aware tiered host:
	// a hot f32 head plus a quantized int8 cold tail. Top-K scans score
	// cold rows on their codes and rescore the winners from
	// full-precision dequantized reads. NewServerFromCheckpoint only.
	ColdTier bool
	// HotFraction sizes the tiered host's hot head as a fraction of the
	// table (default 0.1). Requires ColdTier; must be in (0, 1].
	HotFraction float64
}

// validate rejects bad options before a server constructor loads a
// checkpoint, reads a log or dials a shard.
func (o ServeOptions) validate() error {
	if o.HotFraction != 0 && !o.ColdTier {
		return fmt.Errorf("frugal: HotFraction requires ColdTier")
	}
	if o.HotFraction < 0 || o.HotFraction > 1 {
		return fmt.Errorf("frugal: HotFraction must be in (0, 1], got %g", o.HotFraction)
	}
	return o.internal().Validate()
}

func (o ServeOptions) internal() serve.Options {
	return serve.Options{
		Default: o.Level, RejectStale: o.RejectStale, MaxTopK: o.MaxTopK,
		MaxInflight: o.MaxInflight, AdmitWait: o.AdmitWait, RequestTimeout: o.RequestTimeout,
		Index: o.Index, Centroids: o.Centroids, NProbe: o.NProbe,
	}
}

// Server answers embedding lookups and top-K similarity queries from a
// job's host-memory parameter slab (or a loaded checkpoint). Safe for any
// number of concurrent callers, concurrently with the training job it is
// attached to.
type Server struct {
	eng   *serve.Engine
	owned *store.ShardedStore // non-nil when the server dialled its shards
}

// Serve attaches a query engine to the job's host slab. Call it at any
// point — before, during, or after Run — and query while training runs;
// the consistency levels govern how far a served row may lag the training
// frontier. For the synchronous engines (direct, frugal-sync) every level
// is trivially fresh, since their updates reach host memory at commit
// time.
func (j *TrainingJob) Serve(opt ServeOptions) (*Server, error) {
	if j.job.Host() == nil {
		return nil, fmt.Errorf("frugal: the job trains against an external slab (Config.Slab); serve the store tier directly (NewServerFromShards)")
	}
	eng, err := serve.New(j.job.Host(), j.job.Controller(), opt.internal())
	if err != nil {
		return nil, err
	}
	return &Server{eng: eng}, nil
}

// NewServerFromCheckpoint serves a checkpoint written by SaveCheckpoint
// (or frugal-train -checkpoint-out) without constructing a training job.
// The slab is static, so top-K scans use the unlocked batched kernel and
// every consistency level is trivially satisfied. With Options.ColdTier
// the checkpoint loads into a tiered host — checkpoints of either flavor
// convert on the way in — trading a quantization error on cold rows for
// a fraction of the resident memory.
func NewServerFromCheckpoint(r io.Reader, opt ServeOptions) (*Server, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	var host *runtime.Host
	var err error
	if opt.ColdTier {
		hf := opt.HotFraction
		if hf == 0 {
			hf = 0.1
		}
		host, err = runtime.LoadHostTiered(r, hf)
	} else {
		host, err = runtime.LoadHost(r)
	}
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewStatic(host, opt.internal())
	if err != nil {
		return nil, err
	}
	return &Server{eng: eng}, nil
}

// NewServerFromShards serves a table partitioned across frugal-shard
// nodes: it dials every address, composes the shards behind one sharded
// store (consistent-hash routing, per-shard batched fan-out, global
// watermark = min over shards), and attaches the query engine to it.
// Shard order must match the nodes' -shard indices — key routing uses
// the position in this list. The IVF index is not available on sharded
// servers (each shard scans its own rows instead); request it and
// construction fails.
func NewServerFromShards(addrs []string, opt ServeOptions) (*Server, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	st, err := shard.DialSharded(addrs)
	if err != nil {
		return nil, err
	}
	eng, err := serve.NewFromStore(st, opt.internal())
	if err != nil {
		st.Close()
		return nil, err
	}
	return &Server{eng: eng, owned: st}, nil
}

// ErrReplica is returned by a follower server when a consistency demand
// (fresh, or bounded after catching the log up) needs updates only the
// primary holds. The HTTP layer maps it to 503 with code "replica_lag".
type ErrReplica = serve.ErrReplica

// FollowerStats reports a follower server's replication state: role,
// applied segment position and watermark, and the replication apply
// counters.
type FollowerStats = serve.FollowerStats

// FollowOptions shapes a follower server (NewServerFromLog).
type FollowOptions struct {
	// Poll is the log-tail interval of Run (default 50ms).
	Poll time.Duration
	// WaitForLog keeps construction retrying while the log directory has
	// no base yet — a follower booted alongside its primary (default:
	// fail immediately).
	WaitForLog time.Duration
	// PromoteAfter makes Run promote the follower once the log stops
	// growing for this long — the primary is presumed dead (default:
	// never; call Promote explicitly).
	PromoteAfter time.Duration
}

// FollowerServer is a serve replica over a delta-checkpoint log
// (frugal-train -stream-log): it reconstructs the slab from the latest
// base, tails sealed segments into its own memory, and serves reads
// with replication lag reported through the ordinary consistency gate.
// When the primary dies, Promote (or FollowOptions.PromoteAfter) makes
// it authoritative. The embedded Server is the full query surface —
// HTTP handler, load generator, metrics.
type FollowerServer struct {
	*Server
	fl *serve.Follower
}

// NewServerFromLog builds a follower server tailing the delta-checkpoint
// log at dir. The IVF index is not available on followers (its repair
// feed is the primary's flush stream).
func NewServerFromLog(dir string, opt ServeOptions, fo FollowOptions) (*FollowerServer, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	fl, err := serve.NewFollower(dir, serve.FollowerOptions{
		Poll:         fo.Poll,
		WaitForLog:   fo.WaitForLog,
		PromoteAfter: fo.PromoteAfter,
		Engine:       opt.internal(),
	})
	if err != nil {
		return nil, err
	}
	return &FollowerServer{Server: &Server{eng: fl.Engine()}, fl: fl}, nil
}

// Run tails the log until ctx is done, applying newly sealed segments
// every FollowOptions.Poll and — with PromoteAfter set — promoting once
// the log goes quiet. Serve queries concurrently from the embedded
// Server the whole time.
func (f *FollowerServer) Run(ctx context.Context) error { return f.fl.Run(ctx) }

// CatchUp applies every sealed segment the replica has not seen yet.
func (f *FollowerServer) CatchUp() error { return f.fl.CatchUp() }

// Promote makes the replica authoritative: apply everything sealed,
// salvage the complete prefix of an unsealed segment, and flip the role
// to "primary". Reads then serve at staleness 0 against the promoted
// watermark.
func (f *FollowerServer) Promote() error { return f.fl.Promote() }

// Role reports "follower", or "primary" after promotion.
func (f *FollowerServer) Role() string { return f.fl.Role() }

// ReplicaStats snapshots the replication state.
func (f *FollowerServer) ReplicaStats() FollowerStats { return f.fl.Stats() }

// ShardSlab is a training slab over remote shard nodes: set it as
// Config.Slab and the training job's step loop gathers and scatters
// against the store tier instead of in-process host memory. Close it
// after the job finishes.
type ShardSlab struct {
	*store.TrainSlab
	owned *store.ShardedStore
}

// DialShardSlab dials uncoordinated frugal-shard nodes (started with
// -uncoordinated; the step loop is write-through, so a store-side gate
// would double-coordinate every commit) and composes them into a
// Config.Slab. Shard order must match the nodes' -shard indices.
func DialShardSlab(addrs []string) (*ShardSlab, error) {
	st, err := shard.DialSharded(addrs)
	if err != nil {
		return nil, err
	}
	slab, err := store.NewTrainSlab(st)
	if err != nil {
		st.Close()
		return nil, err
	}
	return &ShardSlab{TrainSlab: slab, owned: st}, nil
}

// Close releases the shard connections.
func (s *ShardSlab) Close() error { return s.owned.Close() }

// Close releases resources the server owns (shard connections). Servers
// over in-process slabs hold nothing and Close is a no-op.
func (s *Server) Close() error {
	if s.owned != nil {
		return s.owned.Close()
	}
	return nil
}

// Rows returns the number of servable embedding rows.
func (s *Server) Rows() int64 { return s.eng.Rows() }

// Dim returns the embedding dimension.
func (s *Server) Dim() int { return s.eng.Dim() }

// Query is the unified entrypoint: one request shape for lookups
// (Key/Dst) and top-K searches (Vector/K), with per-request consistency
// level and index selection. Lookups through Query stay allocation-free
// when Dst is supplied.
func (s *Server) Query(ctx context.Context, req ServeRequest) (ServeResponse, error) {
	return s.eng.Query(ctx, req)
}

// Index reports the server's configured top-K scan strategy.
func (s *Server) Index() IndexKind { return s.eng.Index() }

// IndexStats snapshots the IVF maintenance state (zero value on flat
// servers).
func (s *Server) IndexStats() IndexStats { return s.eng.IndexStats() }

// Handler returns the server's HTTP API, versioned under /v1
// (/v1/lookup, /v1/topk — the unversioned paths remain as aliases) plus
// /healthz and /debug/vars (read-path metrics). Errors share one JSON
// envelope {"error","code","retry_after_ms"}.
func (s *Server) Handler() http.Handler { return s.eng.Handler() }

// HTTPServer is a gracefully-stoppable HTTP front end: it binds its
// listener up front (so ":0" resolves before serving) and Shutdown drains
// in-flight connections instead of dropping them.
type HTTPServer = serve.HTTPServer

// Listen binds addr and returns an HTTPServer ready to Serve the
// server's Handler. Run Serve in a goroutine and call Shutdown with a
// drain deadline to stop.
func (s *Server) Listen(addr string) (*HTTPServer, error) {
	return serve.NewHTTPServer(addr, s.Handler())
}

// Metrics snapshots the server's query counters and latency histograms.
func (s *Server) Metrics() ServeMetrics { return s.eng.Metrics() }

// LoadGenOptions configures RunLoadGen: worker count, duration, Zipf key
// skew, top-K mix, consistency level, seed — and, with ArrivalRate > 0,
// the open-loop (fixed-arrival-rate) discipline that can drive the
// server past saturation.
type LoadGenOptions = loadgen.Options

// LoadGenReport is a finished load run's summary: throughput, error,
// shed and rejection counts, client-observed latency histograms, and —
// in open-loop mode — offered/dropped arrival accounting.
type LoadGenReport = loadgen.Report

// RunLoadGen drives the server with a Zipf-skewed workload (closed-loop
// by default, open-loop with ArrivalRate set) and returns the aggregate
// report — the serving benchmark.
func (s *Server) RunLoadGen(opt LoadGenOptions) (LoadGenReport, error) {
	return loadgen.Run(s.eng, opt)
}
