// Package model implements the embedding models of the evaluation (§4.1):
// Facebook DLRM (embedding layer + fully connected DNN) for the
// recommendation workloads, and the TransE / DistMult / ComplEx / SimplE
// scoring functions for knowledge-graph embedding. Everything is real
// float32 training code — forward, backward, SGD — so the runtime's loss
// actually decreases; Exp #11 swaps these models to show Frugal's gains
// are orthogonal to the dense part.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"frugal/internal/tensor"
)

// MLP is a fully connected network with ReLU activations between layers
// and a linear final layer (the DLRM top MLP: 512-512-256-1 in §4.1).
type MLP struct {
	dims []int
	w    []*tensor.Matrix
	b    [][]float32
	// Accumulated gradients, applied by Step.
	gw []*tensor.Matrix
	gb [][]float32
}

// NewMLP builds an MLP with the given layer dimensions, e.g.
// NewMLP(rng, 32, 512, 512, 256, 1) for the paper's DLRM top net.
func NewMLP(rng *rand.Rand, dims ...int) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("model: MLP needs at least 2 dims, got %v", dims)
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("model: non-positive MLP dim in %v", dims)
		}
	}
	m := &MLP{dims: dims}
	for l := 0; l+1 < len(dims); l++ {
		in, out := dims[l], dims[l+1]
		w := tensor.NewMatrix(out, in)
		tensor.XavierInit(rng, w.Data, in, out)
		m.w = append(m.w, w)
		m.b = append(m.b, make([]float32, out))
		m.gw = append(m.gw, tensor.NewMatrix(out, in))
		m.gb = append(m.gb, make([]float32, out))
	}
	return m, nil
}

// Scratch holds per-sample forward state reused across Backward.
type Scratch struct {
	acts  [][]float32 // activations per layer (acts[0] = input copy)
	masks [][]float32 // ReLU masks per hidden layer
	grads [][]float32 // gradient buffers per layer
}

// NewScratch allocates scratch buffers for the MLP.
func (m *MLP) NewScratch() *Scratch {
	s := &Scratch{}
	for _, d := range m.dims {
		s.acts = append(s.acts, make([]float32, d))
		s.grads = append(s.grads, make([]float32, d))
	}
	for l := 0; l+1 < len(m.dims); l++ {
		s.masks = append(s.masks, make([]float32, m.dims[l+1]))
	}
	return s
}

// Forward runs one sample through the net and returns the (pre-sigmoid)
// scalar logit of the final layer. For multi-output nets it returns the
// first output; use Output for the full vector.
func (m *MLP) Forward(x []float32, s *Scratch) float32 {
	if len(x) != m.dims[0] {
		panic(fmt.Sprintf("model: MLP input dim %d, want %d", len(x), m.dims[0]))
	}
	copy(s.acts[0], x)
	for l, w := range m.w {
		w.MulVec(s.acts[l], s.acts[l+1])
		tensor.Axpy(1, m.b[l], s.acts[l+1])
		if l+1 < len(m.w) { // hidden layers get ReLU; final layer is linear
			tensor.ReLU(s.acts[l+1], s.masks[l])
		}
	}
	return s.acts[len(s.acts)-1][0]
}

// Backward back-propagates dLogit (∂loss/∂logit from the last Forward on
// this scratch), accumulates weight/bias gradients, and returns
// ∂loss/∂input (aliasing scratch storage — copy before the next call).
func (m *MLP) Backward(dLogit float32, s *Scratch) []float32 {
	last := len(s.grads) - 1
	tensor.Zero(s.grads[last])
	s.grads[last][0] = dLogit
	for l := len(m.w) - 1; l >= 0; l-- {
		if l+1 < len(m.w) {
			tensor.ReLUBackward(s.grads[l+1], s.masks[l])
		}
		m.gw[l].AddOuter(1, s.grads[l+1], s.acts[l])
		tensor.Axpy(1, s.grads[l+1], m.gb[l])
		m.w[l].MulVecT(s.grads[l+1], s.grads[l])
	}
	return s.grads[0]
}

// Step applies the accumulated gradients with learning rate lr (scaled by
// 1/batch) and clears them.
func (m *MLP) Step(lr float32, batch int) {
	if batch < 1 {
		batch = 1
	}
	scale := lr / float32(batch)
	for l := range m.w {
		tensor.Axpy(-scale, m.gw[l].Data, m.w[l].Data)
		tensor.Axpy(-scale, m.gb[l], m.b[l])
		tensor.Zero(m.gw[l].Data)
		tensor.Zero(m.gb[l])
	}
}

// BCELoss returns the binary cross-entropy of a logit against a {0,1}
// label, and ∂loss/∂logit.
func BCELoss(logit, label float32) (loss, dLogit float32) {
	p := tensor.SigmoidScalar(logit)
	const eps = 1e-7
	pc := float64(p)
	if pc < eps {
		pc = eps
	}
	if pc > 1-eps {
		pc = 1 - eps
	}
	if label > 0.5 {
		loss = float32(-math.Log(pc))
	} else {
		loss = float32(-math.Log(1 - pc))
	}
	return loss, p - label
}
