package model

import (
	"fmt"

	"frugal/internal/tensor"
)

// GNNScorer is a shallow GraphSAGE-style link predictor operating purely
// on node embeddings: a node's representation is the mean of its own
// embedding and its sampled neighbors' mean, and an edge (u, v) scores by
// the inner product of the two representations. All gradients flow into
// the embedding rows — the memory-intensive regime Frugal targets.
//
//	repr(x)  = ½·e_x + ½·mean(e_n for n in nbrs(x))
//	score    = ⟨repr(u), repr(v)⟩
//	loss     = BCE(σ(score), label)
type GNNScorer struct {
	dim    int
	ru, rv []float32
}

// NewGNNScorer builds a scorer for embeddings of the given dimension; it
// takes any number of sampled neighbors per node.
func NewGNNScorer(dim int) (*GNNScorer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("model: invalid GNN dim %d", dim)
	}
	return &GNNScorer{dim: dim, ru: make([]float32, dim), rv: make([]float32, dim)}, nil
}

// Dim returns the embedding dimension.
func (g *GNNScorer) Dim() int { return g.dim }

// repr computes dst = ½ self + ½ mean(nbrs).
func (g *GNNScorer) repr(self []float32, nbrs [][]float32, dst []float32) {
	inv := 0.5 / float32(len(nbrs))
	for i := range dst {
		dst[i] = 0.5 * self[i]
	}
	for _, n := range nbrs {
		tensor.Axpy(inv, n, dst)
	}
}

// Score computes the link logit of (u, v) given their embeddings and
// sampled neighbor embeddings.
func (g *GNNScorer) Score(u []float32, uNbrs [][]float32, v []float32, vNbrs [][]float32) float32 {
	g.repr(u, uNbrs, g.ru)
	g.repr(v, vNbrs, g.rv)
	return tensor.Dot(g.ru, g.rv)
}

// TrainPair runs one labelled pair through forward+backward, accumulating
// ∂loss/∂embedding into the gradient buffers (gu/gv for the endpoints,
// guN/gvN parallel to the neighbor lists; any may be nil to skip) and
// returning the BCE loss.
func (g *GNNScorer) TrainPair(label float32,
	u []float32, uNbrs [][]float32, v []float32, vNbrs [][]float32,
	gu []float32, guN [][]float32, gv []float32, gvN [][]float32) float32 {

	logit := g.Score(u, uNbrs, v, vNbrs)
	loss, dLogit := BCELoss(logit, label)
	// ∂score/∂repr(u) = repr(v) and vice versa; ∂repr/∂self = ½,
	// ∂repr/∂neighbor = ½/fanout.
	g.accumulate(dLogit, g.rv, gu, guN, len(uNbrs))
	g.accumulate(dLogit, g.ru, gv, gvN, len(vNbrs))
	return loss
}

func (g *GNNScorer) accumulate(dLogit float32, other []float32,
	gSelf []float32, gNbrs [][]float32, fan int) {
	if gSelf != nil {
		tensor.Axpy(0.5*dLogit, other, gSelf)
	}
	if gNbrs != nil {
		c := 0.5 * dLogit / float32(fan)
		for _, gn := range gNbrs {
			if gn != nil {
				tensor.Axpy(c, other, gn)
			}
		}
	}
}
