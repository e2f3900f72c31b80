package runtime

import (
	"fmt"
	"math/rand"
	"slices"

	"frugal/internal/data"
	"frugal/internal/graph"
	"frugal/internal/model"
)

// NewREC builds a recommendation training job: DLRM (one top-MLP replica
// per GPU, as data-parallel trainers keep theirs) over a REC stream. The
// embedding table is the host slab; Config.Rows must cover the stream's
// ID space.
func NewREC(cfg Config, stream *data.RECStream, hidden []int, steps int64) (*Job, error) {
	spec := stream.Spec()
	if cfg.Rows == 0 {
		cfg.Rows = int64(spec.KeySpace())
	}
	if cfg.Dim == 0 {
		cfg.Dim = spec.EmbDim
	}
	if cfg.Rows < int64(spec.KeySpace()) {
		return nil, fmt.Errorf("runtime: Rows %d smaller than %s key space %d", cfg.Rows, spec.Name, spec.KeySpace())
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	models := make([]*model.DLRM, cfg.NumGPUs)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for w := range models {
		m, err := model.NewDLRM(rng, spec.Features, cfg.Dim, hidden)
		if err != nil {
			return nil, err
		}
		models[w] = m
	}

	n := cfg.NumGPUs
	features := spec.Features
	lr := cfg.LR
	jobRef := &jobHandle{}
	bufs := newStepBufs(n, func(w int, sh *shardBuf) computeFunc {
		m := models[w]
		return func(rows [][]float32, grads [][]float32) float32 {
			sh.preds = slices.Grow(sh.preds[:0], len(sh.labels))[:len(sh.labels)]
			loss, err := m.TrainBatch(rows, sh.labels, grads, sh.preds, lr)
			if err != nil {
				panic(err) // shapes are constructed above; a mismatch is a bug
			}
			jobRef.recordPreds(sh.preds, sh.labels)
			return loss * float32(len(sh.labels))
		}
	})
	gen := func() (stepPayload, []uint64, bool) {
		b, ok := stream.NextBatch()
		if !ok {
			return stepPayload{}, nil, false
		}
		samples := len(b.Labels)
		sb := bufs.get(samples, features, 0)
		for w := range sb.shards {
			sh := &sb.shards[w]
			sh.labels = sh.labels[:0]
			for s := w; s < samples; s += n {
				sh.keys = append(sh.keys, b.Keys[s*features:(s+1)*features]...)
				sh.labels = append(sh.labels, b.Labels[s])
			}
		}
		return sb.ready(), b.Keys, true
	}
	job, err := newJob(cfg, clampSteps(steps, stream.Steps()), stream.Batch(), gen)
	if err != nil {
		return nil, err
	}
	jobRef.j = job
	return job, nil
}

// jobHandle late-binds the job pointer into payload closures that are
// constructed before the job itself.
type jobHandle struct{ j *Job }

func (h *jobHandle) recordPreds(preds, labels []float32) {
	if h.j != nil {
		h.j.recordPreds(preds, labels)
	}
}

// NewKG builds a knowledge-graph training job: the given triple model over
// a KG stream, with the DGL-KE negative-sampling objective. All workers
// share the batch's negative entities (and contribute partial gradients
// to them — the P²F commit path aggregates the partials on host memory).
func NewKG(cfg Config, stream *data.KGStream, tm model.TripleModel, steps int64) (*Job, error) {
	spec := stream.Spec()
	if cfg.Rows == 0 {
		cfg.Rows = int64(spec.KeySpace())
	}
	if cfg.Dim == 0 {
		cfg.Dim = spec.EmbDim
	}
	if cfg.Rows < int64(spec.KeySpace()) {
		return nil, fmt.Errorf("runtime: Rows %d smaller than %s key space %d", cfg.Rows, spec.Name, spec.KeySpace())
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}

	n := cfg.NumGPUs
	bufs := newStepBufs(n, func(_ int, sh *shardBuf) computeFunc {
		return func(rows [][]float32, grads [][]float32) float32 {
			count := sh.count
			negRows := rows[count*3:]
			negGrads := grads[count*3:]
			var loss float32
			for t := 0; t < count; t++ {
				loss += model.TrainTriple(tm,
					rows[t*3], rows[t*3+1], rows[t*3+2], negRows,
					grads[t*3], grads[t*3+1], grads[t*3+2], negGrads)
			}
			return loss
		}
	})
	gen := func() (stepPayload, []uint64, bool) {
		b, ok := stream.NextBatch()
		if !ok {
			return stepPayload{}, nil, false
		}
		triples := len(b.Heads)
		sb := bufs.get(triples, 3, len(b.Negs))
		for w := range sb.shards {
			sh := &sb.shards[w]
			for t := w; t < triples; t += n {
				sh.keys = append(sh.keys, b.Heads[t], b.Rels[t], b.Tails[t])
			}
			sh.keys = append(sh.keys, b.Negs...)
		}
		return sb.ready(), b.AllKeys(nil), true
	}
	return newJob(cfg, clampSteps(steps, stream.Steps()), stream.Batch(), gen)
}

// clampSteps resolves the requested step count against the stream length
// (0 or negative → the whole stream).
func clampSteps(requested, available int64) int64 {
	if requested <= 0 || requested > available {
		return available
	}
	return requested
}

// KeyTrace is any replayable batch-of-keys source: synthetic generators
// (data.SyntheticTrace) or recorded traces (data.FileTrace).
type KeyTrace interface {
	Next() ([]uint64, bool)
	Steps() int64
	Batch() int
}

// NewMicro builds the Exp #1 microbenchmark job: pure embedding traffic
// (gather + optimizer update with a synthetic gradient), no DNN. Every
// key in the batch receives a gradient pushing its first component
// towards the key's parity — enough signal for tests to verify updates
// land.
func NewMicro(cfg Config, trace KeyTrace, steps int64) (*Job, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	n := cfg.NumGPUs
	bufs := newStepBufs(n, func(_ int, sh *shardBuf) computeFunc {
		return func(rows [][]float32, grads [][]float32) float32 {
			var loss float32
			for i, row := range rows {
				// Pull row[0] towards ±1 by key parity: grad =
				// row[0] − target (quadratic loss).
				target := float32(1)
				if sh.keys[i]%2 == 1 {
					target = -1
				}
				diff := row[0] - target
				grads[i][0] = diff
				loss += diff * diff / 2
			}
			return loss
		}
	})
	gen := func() (stepPayload, []uint64, bool) {
		keys, ok := trace.Next()
		if !ok {
			return stepPayload{}, nil, false
		}
		sb := bufs.get(len(keys), 1, 0)
		for w := range sb.shards {
			sh := &sb.shards[w]
			for i := w; i < len(keys); i += n {
				sh.keys = append(sh.keys, keys[i])
			}
		}
		return sb.ready(), keys, true
	}
	return newJob(cfg, clampSteps(steps, trace.Steps()), trace.Batch(), gen)
}

// NewGNN builds a graph-learning job: GraphSAGE-style link prediction over
// a synthetic power-law graph (the third application family the paper's
// introduction motivates). Each global step samples `edges` positive
// edges; every positive trains against one uniform negative, with
// `sampler.Fanout()` sampled neighbors per node. All gradients land in
// node embeddings and travel the same P²F commit path as the other tasks.
func NewGNN(cfg Config, g *graph.Graph, sampler *graph.Sampler, edges int, steps int64) (*Job, error) {
	if cfg.Rows == 0 {
		cfg.Rows = int64(g.Nodes())
	}
	if cfg.Dim == 0 {
		cfg.Dim = 32
	}
	if cfg.Rows < int64(g.Nodes()) {
		return nil, fmt.Errorf("runtime: Rows %d smaller than graph node count %d", cfg.Rows, g.Nodes())
	}
	if edges <= 0 {
		edges = 128
	}
	if steps <= 0 {
		return nil, fmt.Errorf("runtime: steps must be positive, got %d", steps)
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	scorers := make([]*model.GNNScorer, cfg.NumGPUs)
	for w := range scorers {
		sc, err := model.NewGNNScorer(cfg.Dim)
		if err != nil {
			return nil, err
		}
		scorers[w] = sc
	}

	n := cfg.NumGPUs
	fan := sampler.Fanout()
	// Per-positive key block: u, v, neg, then the three neighbor groups.
	block := 3 + 3*fan
	bufs := newStepBufs(n, func(w int, sh *shardBuf) computeFunc {
		sc := scorers[w]
		return func(rows [][]float32, grads [][]float32) float32 {
			var loss float32
			for i := 0; i < sh.count; i++ {
				o := i * block
				u, v, neg := rows[o], rows[o+1], rows[o+2]
				uN := rows[o+3 : o+3+fan]
				vN := rows[o+3+fan : o+3+2*fan]
				negN := rows[o+3+2*fan : o+3+3*fan]
				gu, gv, gneg := grads[o], grads[o+1], grads[o+2]
				guN := grads[o+3 : o+3+fan]
				gvN := grads[o+3+fan : o+3+2*fan]
				gnegN := grads[o+3+2*fan : o+3+3*fan]
				loss += sc.TrainPair(1, u, uN, v, vN, gu, guN, gv, gvN)
				loss += sc.TrainPair(0, u, uN, neg, negN, gu, guN, gneg, gnegN)
			}
			return loss
		}
	})
	gen := func() (stepPayload, []uint64, bool) {
		b := sampler.SampleBatch(edges)
		sb := bufs.get(edges, block, 0)
		for w := range sb.shards {
			sh := &sb.shards[w]
			for e := w; e < edges; e += n {
				sh.keys = append(sh.keys, b.U[e], b.V[e], b.Neg[e])
				sh.keys = append(sh.keys, b.UNbrs[e*fan:(e+1)*fan]...)
				sh.keys = append(sh.keys, b.VNbrs[e*fan:(e+1)*fan]...)
				sh.keys = append(sh.keys, b.NegNbrs[e*fan:(e+1)*fan]...)
			}
		}
		return sb.ready(), b.AllKeys(nil), true
	}
	return newJob(cfg, steps, edges, gen)
}
