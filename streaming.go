package frugal

import (
	"context"
	"fmt"
	"time"

	"frugal/internal/ckpt"
	"frugal/internal/data"
	"frugal/internal/p2f"
	"frugal/internal/runtime"
	"frugal/internal/stream"
)

// StreamOptions configures continuous online training (NewStreamJob and
// the Streaming workload): an unbounded, rate-paced event source drives
// the ordinary step loop, and — when LogDir is set — a delta-checkpoint
// log is cut continuously off the P²F flush stream, with no
// stop-the-world pause, for incremental recovery and serve followers
// (frugal-serve -follow).
type StreamOptions struct {
	// Rate is the event arrival rate per second. The arrival process is
	// open-loop: events accumulate at this rate regardless of how fast
	// the trainer consumes them. ≤ 0 removes the pacing (train at full
	// speed — tests, benchmarks, backfill).
	Rate float64
	// Batch is the events per global training step (default 256).
	Batch int
	// KeySpace is the number of distinct keys (default 100 000).
	KeySpace uint64
	// Distribution draws event keys: uniform, zipf-0.9 or zipf-0.99
	// (default zipf-0.9).
	Distribution string
	// Dim is the embedding dimension (default 32).
	Dim int
	// Horizon caps the stream's length in steps (default 1<<20); the job
	// ends through its normal epilogue when it runs out. It sizes nothing:
	// the P²F queue recycles a ring of step slots, so the job's memory
	// does not grow with the steps it runs.
	Horizon int64

	// LogDir, when set, enables the delta-checkpoint log: an empty (or
	// missing) directory that receives the initial base checkpoint,
	// watermark-tagged delta segments, and periodic compactions.
	LogDir string
	// SweepInterval is the delta-log sweep cadence (default 50ms) — the
	// follower's steady-state replication lag.
	SweepInterval time.Duration
	// SweepRecords triggers an early sweep at this many dirty keys
	// (default 8192).
	SweepRecords int
	// CompactEvery folds the log into a fresh base after this many
	// sealed segments (default 16; negative disables compaction).
	CompactEvery int
}

func (o *StreamOptions) normalize() {
	if o.Batch <= 0 {
		o.Batch = 256
	}
	if o.KeySpace == 0 {
		o.KeySpace = 100_000
	}
	if o.Distribution == "" {
		o.Distribution = string(data.DistZipf09)
	}
	if o.Dim <= 0 {
		o.Dim = 32
	}
	if o.Horizon <= 0 {
		o.Horizon = 1 << 20
	}
	switch {
	case o.CompactEvery == 0:
		o.CompactEvery = 16
	case o.CompactEvery < 0:
		o.CompactEvery = 0 // the ckpt layer's "disabled"
	}
}

// DeltaLogStats is the delta-checkpoint log's accounting (segments
// sealed, row images logged, compactions folded, current base, dirty
// depth).
type DeltaLogStats = ckpt.WriterStats

// StreamJob is a continuous online-training run: training, incremental
// checkpointing and serving happen at once, with no phase split. Build
// it with NewStreamJob; end it by canceling Run's context (or letting
// the horizon run out) — the job then winds down through the normal
// epilogue, draining every committed update to host memory and sealing
// the log's final segment, so the log reconstructs the exact final
// state.
type StreamJob struct {
	job *runtime.Job
	src *stream.Source
	w   *ckpt.Writer // nil without LogDir
}

// NewStreamJob builds a continuous training job over a rate-paced event
// source. It requires EngineFrugal (the delta log rides the P²F flush
// stream) and the job's own host slab (no Config.Slab override).
func NewStreamJob(cfg Config, opt StreamOptions) (*StreamJob, error) {
	if cfg.Engine == "" {
		cfg.Engine = EngineFrugal // the Config default
	}
	if cfg.Engine != EngineFrugal {
		return nil, fmt.Errorf("frugal: streaming requires EngineFrugal (the delta log rides the P²F flush stream)")
	}
	if cfg.Slab != nil {
		return nil, fmt.Errorf("frugal: streaming requires the job's own host slab (Config.Slab is set)")
	}
	opt.normalize()
	src, err := stream.New(stream.Options{
		Rate:         opt.Rate,
		Batch:        opt.Batch,
		Keys:         opt.KeySpace,
		Distribution: data.Distribution(opt.Distribution),
		Seed:         cfg.Seed + 1,
		Horizon:      opt.Horizon,
	})
	if err != nil {
		return nil, err
	}
	rc := cfg.runtimeConfig()
	rc.Rows = int64(opt.KeySpace)
	rc.Dim = opt.Dim
	job, err := runtime.NewMicro(rc, src, opt.Horizon)
	if err != nil {
		return nil, err
	}
	s := &StreamJob{job: job, src: src}
	if opt.LogDir != "" {
		w, err := ckpt.NewWriter(job.Host(), job.Controller(), ckpt.Options{
			Dir:           opt.LogDir,
			SweepInterval: opt.SweepInterval,
			SweepRecords:  opt.SweepRecords,
			CompactEvery:  opt.CompactEvery,
		})
		if err != nil {
			return nil, err
		}
		// Every flush path — flusher pool, force-flush, degraded commits —
		// feeds the log.
		job.Controller().AddFlushHook(w.OnFlush)
		s.w = w
	}
	return s, nil
}

// Run trains until ctx is done or the horizon runs out. Cancellation is
// graceful — it closes the event source, so the job finishes in-flight
// steps, drains every committed update to host memory, seals the log's
// final segment, and returns the Result normally (not ErrCanceled).
func (s *StreamJob) Run(ctx context.Context) (Result, error) {
	watcherDone := make(chan struct{})
	runDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			s.src.Close()
		case <-runDone:
		}
	}()
	res, err := s.job.Run()
	close(runDone)
	<-watcherDone
	if s.w != nil {
		// The epilogue has drained: the writer's final sweep captures the
		// exact final state before the sweeper stops.
		if cerr := s.w.Close(); err == nil {
			err = cerr
		}
	}
	return res, err
}

// Stop ends the stream without canceling a context: the next batch
// request returns end-of-stream and Run winds down gracefully.
// Idempotent, safe from any goroutine.
func (s *StreamJob) Stop() { s.src.Close() }

// Host exposes the live slab (serve an Engine over it while training).
func (s *StreamJob) Host() *runtime.Host { return s.job.Host() }

// Controller exposes the live P²F controller (the consistency gate a
// serving engine coordinates with).
func (s *StreamJob) Controller() *p2f.Controller { return s.job.Controller() }

// Snapshot returns the job's observability metrics (see
// TrainingJob.Snapshot).
func (s *StreamJob) Snapshot() Snapshot { return s.job.Snapshot() }

// Emitted reports events handed to the trainer so far.
func (s *StreamJob) Emitted() int64 { return s.src.Emitted() }

// Backlog estimates the open-loop arrival backlog in events: arrived by
// wall clock, not yet consumed (0 for unpaced streams).
func (s *StreamJob) Backlog() int64 { return s.src.Backlog() }

// LogStats snapshots the delta-checkpoint log accounting (zero without
// LogDir).
func (s *StreamJob) LogStats() DeltaLogStats {
	if s.w == nil {
		return DeltaLogStats{}
	}
	return s.w.Stats()
}

// ReconstructLog rebuilds the slab a delta-checkpoint log directory
// describes — the highest base and its sidecar, with every later segment
// replayed over it — and returns it as a quiescent host (serve it with
// serve.NewStatic, or diff it against a SaveCheckpoint stream). After a
// graceful Run of an untiered job the reconstruction holds the final
// state's bytes and every row's version.
func ReconstructLog(dir string) (*runtime.Host, error) { return ckpt.Reconstruct(dir) }
