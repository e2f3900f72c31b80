package frugal

import (
	"bytes"
	"strings"
	"testing"
)

func TestDatasetsRegistry(t *testing.T) {
	if len(Datasets()) != 6 {
		t.Fatalf("Datasets() = %d entries, want 6", len(Datasets()))
	}
	ds, err := DatasetByName("Avazu")
	if err != nil || ds.Name != "Avazu" {
		t.Fatalf("DatasetByName: %v", err)
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Fatal("unknown dataset should error")
	}
}

func TestMicrobenchmarkAllEngines(t *testing.T) {
	for _, engine := range []Engine{EngineFrugal, EngineFrugalSync, EngineDirect} {
		job, err := New(Config{
			Engine: engine, NumGPUs: 2, CheckConsistency: true, Seed: 1,
		}, Microbenchmark{Options: MicroOptions{KeySpace: 2000, Batch: 64, Steps: 30}})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.Steps != 30 {
			t.Fatalf("%s: steps = %d", engine, res.Steps)
		}
		if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
			t.Fatalf("%s: loss did not drop", engine)
		}
	}
}

func TestRecommendationJob(t *testing.T) {
	job, err := New(Config{NumGPUs: 2, CheckConsistency: true, Seed: 2}, Recommendation{Dataset: DatasetAvazu, Options: RECOptions{Scale: 1_000_000, Batch: 16, Steps: 40, Hidden: []int{16}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Flushed == 0 {
		t.Fatal("Frugal engine must flush updates")
	}
	// A trained row must be retrievable.
	if row := job.HostRow(0); len(row) != DatasetAvazu.EmbDim {
		t.Fatalf("HostRow dim = %d", len(row))
	}
}

func TestRecommendationRejectsKGDataset(t *testing.T) {
	if _, err := New(Config{}, Recommendation{Dataset: DatasetFB15k, Options: RECOptions{}}); err == nil {
		t.Fatal("KG dataset must be rejected")
	}
}

func TestKnowledgeGraphJobAllModels(t *testing.T) {
	for _, m := range []string{"TransE", "DistMult", "ComplEx", "SimplE"} {
		job, err := New(Config{NumGPUs: 2, CheckConsistency: true, Seed: 3}, KnowledgeGraph{Dataset: DatasetFB15k, Options: KGOptions{Model: m, Scale: 100, Batch: 8, NegSample: 4, Steps: 15, Dim: 8}})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if _, err := job.Run(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	}
}

func TestKnowledgeGraphRejectsBadInput(t *testing.T) {
	if _, err := New(Config{}, KnowledgeGraph{Dataset: DatasetAvazu, Options: KGOptions{}}); err == nil {
		t.Fatal("REC dataset must be rejected")
	}
	if _, err := New(Config{}, KnowledgeGraph{Dataset: DatasetFB15k, Options: KGOptions{Model: "RotatE"}}); err == nil {
		t.Fatal("unknown model must be rejected")
	}
}

func TestMicrobenchmarkRejectsBadDistribution(t *testing.T) {
	if _, err := New(Config{}, Microbenchmark{Options: MicroOptions{Distribution: "pareto"}}); err == nil {
		t.Fatal("unknown distribution must be rejected")
	}
}

func TestExperimentsRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 19 { // table1, table2, fig3a-c, exp1-11, ext1-3
		t.Fatalf("Experiments() = %d entries, want 19", len(exps))
	}
	var sb strings.Builder
	if err := RunExperiment(&sb, "table1", true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "RTX 4090") {
		t.Fatal("table1 output missing GPU names")
	}
	if err := RunExperiment(&sb, "bogus", true); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestReplayJob(t *testing.T) {
	trace := "1 2 3 4\n5 6 7 8\n1 2 5 6\n" // 3 batches over keys 1..8
	job, err := New(Config{NumGPUs: 2, CheckConsistency: true}, Replay{Source: strings.NewReader(trace), Options: ReplayOptions{Dim: 4}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 {
		t.Fatalf("steps = %d, want 3", res.Steps)
	}
	if _, err := New(Config{}, Replay{Source: strings.NewReader(""), Options: ReplayOptions{}}); err == nil {
		t.Fatal("empty trace must error")
	}
}

func TestCheckpointThroughPublicAPI(t *testing.T) {
	mk := func() *TrainingJob {
		job, err := New(Config{NumGPUs: 2, Seed: 5, Optimizer: OptimizerAdagrad}, Microbenchmark{Options: MicroOptions{KeySpace: 1000, Batch: 32, Steps: 20}})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	first := mk()
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := first.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	second := mk()
	if err := second.RestoreCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := second.Run(); err != nil {
		t.Fatal(err)
	}
	row := second.HostRow(0)
	if len(row) != 32 {
		t.Fatalf("HostRow dim = %d", len(row))
	}
}

// TestKGEvaluation: training must lift link-prediction quality well above
// an untrained model's.
func TestKGEvaluation(t *testing.T) {
	cfg := Config{NumGPUs: 2, LR: 0.5, Seed: 19, CheckConsistency: true}
	opt := KGOptions{Model: "TransE", Scale: 400, Batch: 128, NegSample: 64, Steps: 1500, Dim: 16}

	untrainedJob, err := New(cfg, KnowledgeGraph{Dataset: DatasetFB15k, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate without running: random embeddings.
	base, err := EvaluateKnowledgeGraph(untrainedJob, cfg, DatasetFB15k, opt, 300, 50)
	if err != nil {
		t.Fatal(err)
	}

	trainedJob, err := New(cfg, KnowledgeGraph{Dataset: DatasetFB15k, Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainedJob.Run(); err != nil {
		t.Fatal(err)
	}
	trained, err := EvaluateKnowledgeGraph(trainedJob, cfg, DatasetFB15k, opt, 300, 50)
	if err != nil {
		t.Fatal(err)
	}
	// The lift bound is modest: concurrent flush ordering makes float
	// accumulation (hence the long trajectory) run-dependent, so the
	// trained MRR varies a little around ~1.4x the untrained baseline.
	if trained.MRR <= base.MRR*1.2 {
		t.Fatalf("training should lift MRR: untrained %.3f, trained %.3f", base.MRR, trained.MRR)
	}
	if trained.Triples != 300 || trained.Candidates != 50 {
		t.Fatalf("eval size wrong: %+v", trained)
	}
	if _, err := EvaluateKnowledgeGraph(trainedJob, cfg, DatasetAvazu, opt, 10, 10); err == nil {
		t.Fatal("REC dataset must be rejected")
	}
}

func TestGraphLearningJob(t *testing.T) {
	job, err := New(Config{NumGPUs: 2, LR: 0.2, Seed: 61, CheckConsistency: true}, GraphLearning{Options: GNNOptions{Nodes: 1500, Fanout: 3, Dim: 16, Edges: 48, Steps: 60}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
		t.Fatal("graph-learning loss did not drop")
	}
}

// failReader fails the test on any read: a constructor handed one must
// reject its options before it loads anything.
type failReader struct{ t *testing.T }

func (r failReader) Read([]byte) (int, error) {
	r.t.Fatal("server constructor read the checkpoint before rejecting its options")
	return 0, nil
}

// TestServerOptionsRejectedBeforeLoad pins that every server constructor
// checks its options before it loads a checkpoint, reads a log directory
// or dials a shard.
func TestServerOptionsRejectedBeforeLoad(t *testing.T) {
	bad := map[string]ServeOptions{
		"hot fraction without cold tier": {HotFraction: 0.5},
		"hot fraction above 1":           {ColdTier: true, HotFraction: 1.5},
		"negative hot fraction":          {ColdTier: true, HotFraction: -0.1},
		"max-inflight under a top-K":     {MaxInflight: 4},
		"negative max-inflight":          {MaxInflight: -1},
		"negative request timeout":       {RequestTimeout: -1},
		"negative max top-K":             {MaxTopK: -1},
		"centroids without IVF":          {Centroids: 64},
		"negative nprobe":                {Index: IndexIVF, NProbe: -1},
	}
	missing := t.TempDir() + "/no-such-log"
	for name, opt := range bad {
		if _, err := NewServerFromCheckpoint(failReader{t}, opt); err == nil {
			t.Errorf("%s: NewServerFromCheckpoint accepted", name)
		}
		// An unroutable address would fail the dial too; the error must
		// come from the options instead.
		if _, err := NewServerFromShards([]string{"127.0.0.1:1"}, opt); err == nil || strings.Contains(err.Error(), "127.0.0.1:1") {
			t.Errorf("%s: NewServerFromShards err = %v, want an options error before dialing", name, err)
		}
		if _, err := NewServerFromLog(missing, opt, FollowOptions{}); err == nil || strings.Contains(err.Error(), "no-such-log") {
			t.Errorf("%s: NewServerFromLog err = %v, want an options error before reading the log", name, err)
		}
	}
}
