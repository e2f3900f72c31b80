package model

import (
	"fmt"
	"math/rand"

	"frugal/internal/tensor"
)

// DLRM is the Facebook Deep Learning Recommendation Model of §4.1: an
// embedding layer (one dim-32 vector per categorical feature) whose
// vectors are sum-pooled and fed to a fully connected top net
// (512-512-256-1 by default). The embedding rows live outside the model —
// in the multi-GPU cache / host-memory hierarchy — and are passed in per
// batch; TrainBatch returns the gradient for every row so the runtime can
// route it through the P²F commit path.
type DLRM struct {
	features int
	dim      int
	top      *MLP
	scratch  *Scratch
	pooled   []float32
	dPooled  []float32
}

// NewDLRM builds a DLRM for `features` categorical features with
// embedding dimension dim. hidden lists the top-MLP hidden layer sizes;
// nil uses the paper's 512-512-256.
func NewDLRM(rng *rand.Rand, features, dim int, hidden []int) (*DLRM, error) {
	if features <= 0 || dim <= 0 {
		return nil, fmt.Errorf("model: invalid DLRM shape features=%d dim=%d", features, dim)
	}
	if hidden == nil {
		hidden = []int{512, 512, 256}
	}
	dims := append([]int{dim}, hidden...)
	dims = append(dims, 1)
	top, err := NewMLP(rng, dims...)
	if err != nil {
		return nil, err
	}
	return &DLRM{
		features: features,
		dim:      dim,
		top:      top,
		scratch:  top.NewScratch(),
		pooled:   make([]float32, dim),
		dPooled:  make([]float32, dim),
	}, nil
}

// Features returns the categorical feature count.
func (d *DLRM) Features() int { return d.features }

// Dim returns the embedding dimension.
func (d *DLRM) Dim() int { return d.dim }

// Flops estimates forward+backward floating point work per sample.
func (d *DLRM) Flops() float64 {
	return d.top.Flops() + float64(d.features*d.dim)*4 // pooling fwd+bwd
}

// ForwardSample scores one sample from its gathered embedding rows
// (len = features), returning the click logit.
func (d *DLRM) ForwardSample(embs [][]float32) float32 {
	if len(embs) != d.features {
		panic(fmt.Sprintf("model: sample has %d embeddings, want %d", len(embs), d.features))
	}
	tensor.Zero(d.pooled)
	for _, e := range embs {
		tensor.Axpy(1, e, d.pooled)
	}
	return d.top.Forward(d.pooled, d.scratch)
}

// TrainBatch runs forward+backward over a batch and returns the mean BCE
// loss. embs holds batch×features gathered rows (sample-major, matching
// data.RECBatch.Keys); embGrads receives ∂loss/∂row in the same layout
// (buffers provided by the caller, overwritten here). The top MLP is
// updated in place with one SGD step; embedding gradients are returned for
// the runtime to commit through its cache/flush path.
// When preds is non-nil (length = batch) it receives the per-sample click
// probabilities, for AUC tracking.
func (d *DLRM) TrainBatch(embs [][]float32, labels []float32, embGrads [][]float32, preds []float32, lr float32) (float32, error) {
	batch := len(labels)
	if len(embs) != batch*d.features || len(embGrads) != len(embs) {
		return 0, fmt.Errorf("model: batch shape mismatch: embs=%d grads=%d labels=%d features=%d",
			len(embs), len(embGrads), batch, d.features)
	}
	if preds != nil && len(preds) != batch {
		return 0, fmt.Errorf("model: preds buffer has %d slots, want %d", len(preds), batch)
	}
	var totalLoss float32
	for i := 0; i < batch; i++ {
		sample := embs[i*d.features : (i+1)*d.features]
		logit := d.ForwardSample(sample)
		if preds != nil {
			preds[i] = tensor.SigmoidScalar(logit)
		}
		loss, dLogit := BCELoss(logit, labels[i])
		totalLoss += loss
		dIn := d.top.Backward(dLogit, d.scratch)
		// Sum pooling: every feature row receives the same upstream grad.
		copy(d.dPooled, dIn)
		for f := 0; f < d.features; f++ {
			g := embGrads[i*d.features+f]
			if len(g) != d.dim {
				return 0, fmt.Errorf("model: grad buffer %d has dim %d, want %d", i*d.features+f, len(g), d.dim)
			}
			copy(g, d.dPooled)
		}
	}
	d.top.Step(lr, batch)
	return totalLoss / float32(batch), nil
}
