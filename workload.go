package frugal

import (
	"errors"
	"fmt"
	"io"

	"frugal/internal/data"
	"frugal/internal/graph"
	"frugal/internal/model"
	"frugal/internal/runtime"
)

// Workload is a training workload New can build: one of the built-in
// families (Recommendation, KnowledgeGraph, Microbenchmark, GraphLearning,
// Replay, Streaming), each carrying its own option struct. The interface is sealed —
// build is unexported — so the set of workloads is exactly the set this
// package can train; callers compose behaviour through Config and the
// option structs instead of implementing new workload types.
type Workload interface {
	// Name is the human-readable workload description New* used to print
	// (e.g. "Avazu/DLRM", "FB15k/TransE"), with option defaults applied.
	Name() string
	// Kind is the workload family: "recommendation", "knowledge-graph",
	// "microbenchmark", "graph-learning", "replay" or "streaming".
	Kind() string
	// build constructs the runtime job (sealed).
	build(cfg Config) (*runtime.Job, error)
}

// The built-in workloads satisfy Workload.
var _ = [...]Workload{
	Recommendation{}, KnowledgeGraph{}, Microbenchmark{}, GraphLearning{}, Replay{}, Streaming{},
}

// ErrNilWorkload is returned by New when passed a nil Workload.
var ErrNilWorkload = errors.New("frugal: nil workload")

// New is the single entry point for building a training job: it pairs a
// runtime Config with a Workload value.
//
//	job, err := frugal.New(cfg, frugal.Recommendation{
//		Dataset: frugal.DatasetAvazu,
//		Options: frugal.RECOptions{Steps: 200},
//	})
//
// New replaced the per-workload NewRecommendation / NewKnowledgeGraph /
// NewMicrobenchmark / NewGraphLearning / NewReplay constructors, which
// have been removed; pass the equivalent workload value instead.
func New(cfg Config, w Workload) (*TrainingJob, error) {
	if w == nil {
		return nil, ErrNilWorkload
	}
	job, err := w.build(cfg)
	if err != nil {
		return nil, err
	}
	return &TrainingJob{job: job}, nil
}

// Recommendation is the DLRM workload over a synthetic stand-in for a
// Table 2 REC dataset.
type Recommendation struct {
	// Dataset must be a Table 2 REC dataset (DatasetAvazu, DatasetCriteo,
	// DatasetCriteoTB).
	Dataset Dataset
	Options RECOptions
}

// Name implements Workload.
func (w Recommendation) Name() string { return w.Dataset.Name + "/DLRM" }

// Kind implements Workload.
func (w Recommendation) Kind() string { return "recommendation" }

func (w Recommendation) build(cfg Config) (*runtime.Job, error) {
	ds, opt := w.Dataset, w.Options
	if ds.Kind != data.REC {
		return nil, fmt.Errorf("frugal: %s is not a recommendation dataset", ds.Name)
	}
	if opt.Scale <= 0 {
		opt.Scale = 100_000
	}
	if opt.Steps <= 0 {
		opt.Steps = 200
	}
	spec := ds.Scaled(opt.Scale)
	stream, err := data.NewRECStream(spec, cfg.Seed+1, opt.Batch, opt.Steps)
	if err != nil {
		return nil, err
	}
	return runtime.NewREC(cfg.runtimeConfig(), stream, opt.Hidden, opt.Steps)
}

// KnowledgeGraph is the KG-embedding workload (TransE, DistMult, ComplEx
// or SimplE) over a synthetic stand-in for a Table 2 KG dataset.
type KnowledgeGraph struct {
	// Dataset must be a Table 2 KG dataset (DatasetFB15k, DatasetFreebase,
	// DatasetWikiKG).
	Dataset Dataset
	Options KGOptions
}

// Name implements Workload.
func (w KnowledgeGraph) Name() string {
	m := w.Options.Model
	if m == "" {
		m = "TransE"
	}
	return w.Dataset.Name + "/" + m
}

// Kind implements Workload.
func (w KnowledgeGraph) Kind() string { return "knowledge-graph" }

func (w KnowledgeGraph) build(cfg Config) (*runtime.Job, error) {
	ds, opt := w.Dataset, w.Options
	if ds.Kind != data.KG {
		return nil, fmt.Errorf("frugal: %s is not a knowledge-graph dataset", ds.Name)
	}
	if opt.Model == "" {
		opt.Model = "TransE"
	}
	if opt.Scale <= 0 {
		opt.Scale = 10_000
	}
	if opt.Steps <= 0 {
		opt.Steps = 200
	}
	tm, err := model.KGModelByName(opt.Model)
	if err != nil {
		return nil, err
	}
	if te, ok := tm.(*model.TransE); ok && opt.Gamma > 0 {
		te.Gamma = opt.Gamma
	}
	spec := ds.Scaled(opt.Scale)
	if opt.Dim > 0 {
		spec.EmbDim = opt.Dim
	}
	stream, err := data.NewKGStream(spec, cfg.Seed+1, opt.Batch, opt.NegSample, opt.Steps)
	if err != nil {
		return nil, err
	}
	rc := cfg.runtimeConfig()
	rc.Dim = spec.EmbDim
	return runtime.NewKG(rc, stream, tm, opt.Steps)
}

// Microbenchmark is the embedding-only workload of Exp #1: every key in a
// batch is read, given a synthetic gradient, and written back through the
// engine's update path — the fastest way to exercise the P²F machinery end
// to end.
type Microbenchmark struct {
	Options MicroOptions
}

// Name implements Workload.
func (w Microbenchmark) Name() string {
	d := w.Options.Distribution
	if d == "" {
		d = string(data.DistZipf09)
	}
	keys := w.Options.KeySpace
	if keys == 0 {
		keys = 100_000
	}
	return fmt.Sprintf("microbenchmark (%s, %d keys)", d, keys)
}

// Kind implements Workload.
func (w Microbenchmark) Kind() string { return "microbenchmark" }

func (w Microbenchmark) build(cfg Config) (*runtime.Job, error) {
	opt := w.Options
	if opt.Distribution == "" {
		opt.Distribution = string(data.DistZipf09)
	}
	if opt.KeySpace == 0 {
		opt.KeySpace = 100_000
	}
	if opt.Dim <= 0 {
		opt.Dim = 32
	}
	if opt.Batch <= 0 {
		opt.Batch = 256
	}
	if opt.Steps <= 0 {
		opt.Steps = 100
	}
	gen, err := data.NewGen(data.Distribution(opt.Distribution), cfg.Seed+1, opt.KeySpace)
	if err != nil {
		return nil, err
	}
	trace := data.NewSyntheticTrace(gen, opt.Batch, opt.Steps)
	rc := cfg.runtimeConfig()
	rc.Rows = int64(opt.KeySpace)
	rc.Dim = opt.Dim
	return runtime.NewMicro(rc, trace, opt.Steps)
}

// GraphLearning is the GraphSAGE-style link-prediction workload over a
// synthetic power-law graph — the third application family the paper's
// introduction motivates, where every gradient lands in node embeddings
// and travels the P²F flush path.
type GraphLearning struct {
	Options GNNOptions
}

// Name implements Workload.
func (w GraphLearning) Name() string {
	nodes := w.Options.Nodes
	if nodes <= 0 {
		nodes = 10_000
	}
	return fmt.Sprintf("graph-learning (%d nodes)", nodes)
}

// Kind implements Workload.
func (w GraphLearning) Kind() string { return "graph-learning" }

func (w GraphLearning) build(cfg Config) (*runtime.Job, error) {
	opt := w.Options
	if opt.Nodes <= 0 {
		opt.Nodes = 10_000
	}
	if opt.Attach <= 0 {
		opt.Attach = 3
	}
	if opt.Fanout <= 0 {
		opt.Fanout = 5
	}
	if opt.Dim <= 0 {
		opt.Dim = 32
	}
	if opt.Steps <= 0 {
		opt.Steps = 200
	}
	g, err := graph.Generate(cfg.Seed+1, opt.Nodes, opt.Attach)
	if err != nil {
		return nil, err
	}
	sampler, err := graph.NewSampler(g, cfg.Seed+2, opt.Fanout)
	if err != nil {
		return nil, err
	}
	rc := cfg.runtimeConfig()
	rc.Dim = opt.Dim
	return runtime.NewGNN(rc, g, sampler, opt.Edges, opt.Steps)
}

// Streaming is the continuous online-training workload: an unbounded,
// rate-paced event source drives the step loop through the ordinary
// Workload surface. Built through New it behaves like any other job
// (RunContext to bound it); build it with NewStreamJob instead to get
// the streaming controls — graceful source close, backlog accounting,
// and the delta-checkpoint log (StreamOptions.LogDir is rejected here,
// because only StreamJob manages the log writer's lifecycle).
type Streaming struct {
	Options StreamOptions
}

// Name implements Workload.
func (w Streaming) Name() string {
	opt := w.Options
	opt.normalize()
	if opt.Rate > 0 {
		return fmt.Sprintf("streaming (%s, %d keys, %.0f ev/s)", opt.Distribution, opt.KeySpace, opt.Rate)
	}
	return fmt.Sprintf("streaming (%s, %d keys, unpaced)", opt.Distribution, opt.KeySpace)
}

// Kind implements Workload.
func (w Streaming) Kind() string { return "streaming" }

func (w Streaming) build(cfg Config) (*runtime.Job, error) {
	if w.Options.LogDir != "" {
		return nil, fmt.Errorf("frugal: the delta-checkpoint log needs NewStreamJob (the Workload surface cannot manage the writer's lifecycle)")
	}
	opt := w.Options
	opt.normalize()
	_, job, err := buildStream(cfg, opt)
	return job, err
}

// Replay is the trace-replay workload: a microbenchmark-style job driven
// by a recorded key trace (the format cmd/frugal-datagen -trace emits: one
// batch per line, keys space-separated), so recorded production traces can
// drive the real runtime directly.
type Replay struct {
	// Source is the trace to replay. Required.
	Source  io.Reader
	Options ReplayOptions
}

// Name implements Workload.
func (w Replay) Name() string { return "trace replay" }

// Kind implements Workload.
func (w Replay) Kind() string { return "replay" }

func (w Replay) build(cfg Config) (*runtime.Job, error) {
	if w.Source == nil {
		return nil, fmt.Errorf("frugal: Replay.Source is required")
	}
	opt := w.Options
	trace, err := data.ReadKeyTrace(w.Source)
	if err != nil {
		return nil, err
	}
	if opt.Dim <= 0 {
		opt.Dim = 32
	}
	rows := opt.Rows
	if rows <= 0 {
		rows = int64(trace.MaxKey()) + 1
	}
	rc := cfg.runtimeConfig()
	rc.Rows = rows
	rc.Dim = opt.Dim
	return runtime.NewMicro(rc, trace, opt.Steps)
}
