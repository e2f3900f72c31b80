package model

import (
	"fmt"
	"math"

	"frugal/internal/tensor"
)

// TripleModel scores knowledge-graph triples (h, r, t) on their embedding
// vectors. The four implementations are the Exp #11 graph-embedding
// models: TransE, DistMult, ComplEx and SimplE. Entity and relation
// vectors share one dimension d (complex/role-split models interpret the
// halves internally).
type TripleModel interface {
	// Score returns the plausibility of the triple (higher = more
	// plausible).
	Score(h, r, t []float32) float32
	// ScoreGrad accumulates coef·∂Score/∂{h,r,t} into gh, gr, gt and
	// returns the score. Any gradient buffer may be nil to skip it.
	ScoreGrad(h, r, t []float32, coef float32, gh, gr, gt []float32) float32
}

// ----------------------------------------------------------------------

// TransE scores by translation: γ − ‖h + r − t‖₁ (Bordes et al., the §4.1
// KG model with γ the margin).
type TransE struct{ Gamma float32 }

// NewTransE returns TransE with the given margin (0 → 12, a common DGL-KE
// default).
func NewTransE(gamma float32) *TransE {
	if gamma <= 0 {
		gamma = 12
	}
	return &TransE{Gamma: gamma}
}

// Score implements TripleModel.
func (m *TransE) Score(h, r, t []float32) float32 {
	var d float32
	for i := range h {
		x := h[i] + r[i] - t[i]
		if x < 0 {
			x = -x
		}
		d += x
	}
	return m.Gamma - d
}

// ScoreGrad implements TripleModel.
func (m *TransE) ScoreGrad(h, r, t []float32, coef float32, gh, gr, gt []float32) float32 {
	var d float32
	for i := range h {
		x := h[i] + r[i] - t[i]
		var s float32
		if x > 0 {
			s, d = 1, d+x
		} else if x < 0 {
			s, d = -1, d-x
		}
		// ∂score/∂h_i = -sign(x); ∂/∂r_i = -sign(x); ∂/∂t_i = +sign(x).
		if gh != nil {
			gh[i] -= coef * s
		}
		if gr != nil {
			gr[i] -= coef * s
		}
		if gt != nil {
			gt[i] += coef * s
		}
	}
	return m.Gamma - d
}

// ----------------------------------------------------------------------

// DistMult scores with a trilinear product: Σᵢ hᵢ rᵢ tᵢ (Yang et al.).
type DistMult struct{}

// Score implements TripleModel.
func (DistMult) Score(h, r, t []float32) float32 {
	var s float32
	for i := range h {
		s += h[i] * r[i] * t[i]
	}
	return s
}

// ScoreGrad implements TripleModel.
func (DistMult) ScoreGrad(h, r, t []float32, coef float32, gh, gr, gt []float32) float32 {
	var s float32
	for i := range h {
		s += h[i] * r[i] * t[i]
		if gh != nil {
			gh[i] += coef * r[i] * t[i]
		}
		if gr != nil {
			gr[i] += coef * h[i] * t[i]
		}
		if gt != nil {
			gt[i] += coef * h[i] * r[i]
		}
	}
	return s
}

// ----------------------------------------------------------------------

// ComplEx embeds in ℂ^{d/2} (first half real parts, second half imaginary)
// and scores with Re(Σ h r t̄) (Trouillon et al.). Dimensions must be even.
type ComplEx struct{}

// Score implements TripleModel.
func (ComplEx) Score(h, r, t []float32) float32 {
	half := len(h) / 2
	var s float32
	for i := 0; i < half; i++ {
		hr, hi := h[i], h[half+i]
		rr, ri := r[i], r[half+i]
		tr, ti := t[i], t[half+i]
		s += hr*rr*tr + hi*ri*tr + hr*ri*ti - hi*rr*ti
	}
	return s
}

// ScoreGrad implements TripleModel.
func (ComplEx) ScoreGrad(h, r, t []float32, coef float32, gh, gr, gt []float32) float32 {
	half := len(h) / 2
	var s float32
	for i := 0; i < half; i++ {
		hr, hi := h[i], h[half+i]
		rr, ri := r[i], r[half+i]
		tr, ti := t[i], t[half+i]
		s += hr*rr*tr + hi*ri*tr + hr*ri*ti - hi*rr*ti
		if gh != nil {
			gh[i] += coef * (rr*tr + ri*ti)
			gh[half+i] += coef * (ri*tr - rr*ti)
		}
		if gr != nil {
			gr[i] += coef * (hr*tr - hi*ti)
			gr[half+i] += coef * (hi*tr + hr*ti)
		}
		if gt != nil {
			gt[i] += coef * (hr*rr + hi*ri)
			gt[half+i] += coef * (hr*ri - hi*rr)
		}
	}
	return s
}

// ----------------------------------------------------------------------

// SimplE splits every entity vector into head-role and tail-role halves
// and every relation into forward and inverse halves, scoring
// ½(⟨h_head, r_fwd, t_tail⟩ + ⟨t_head, r_inv, h_tail⟩) (Kazemi & Poole).
// Dimensions must be even.
type SimplE struct{}

// Score implements TripleModel.
func (SimplE) Score(h, r, t []float32) float32 {
	half := len(h) / 2
	var s float32
	for i := 0; i < half; i++ {
		s += h[i]*r[i]*t[half+i] + t[i]*r[half+i]*h[half+i]
	}
	return s / 2
}

// ScoreGrad implements TripleModel.
func (SimplE) ScoreGrad(h, r, t []float32, coef float32, gh, gr, gt []float32) float32 {
	half := len(h) / 2
	c := coef / 2
	var s float32
	for i := 0; i < half; i++ {
		s += h[i]*r[i]*t[half+i] + t[i]*r[half+i]*h[half+i]
		if gh != nil {
			gh[i] += c * r[i] * t[half+i]
			gh[half+i] += c * t[i] * r[half+i]
		}
		if gr != nil {
			gr[i] += c * h[i] * t[half+i]
			gr[half+i] += c * t[i] * h[half+i]
		}
		if gt != nil {
			gt[half+i] += c * h[i] * r[i]
			gt[i] += c * r[half+i] * h[half+i]
		}
	}
	return s / 2
}

// ----------------------------------------------------------------------

// KGModelByName resolves one of the four graph-embedding models.
func KGModelByName(name string) (TripleModel, error) {
	switch name {
	case "TransE":
		return NewTransE(0), nil
	case "DistMult":
		return DistMult{}, nil
	case "ComplEx":
		return ComplEx{}, nil
	case "SimplE":
		return SimplE{}, nil
	default:
		return nil, fmt.Errorf("model: unknown KG model %q", name)
	}
}

func softplus(x float32) float32 {
	if x > 30 {
		return x
	}
	return float32(math.Log1p(math.Exp(float64(x))))
}

// TrainTriple computes the logistic loss of one positive triple against a
// set of negative tails (the DGL-KE negative-sampling objective) and
// accumulates ∂loss/∂vector into the provided gradient buffers (gnegs
// parallel to negs; any buffer may be nil). It returns the loss.
func TrainTriple(m TripleModel, h, r, t []float32, negs [][]float32,
	gh, gr, gt []float32, gnegs [][]float32) float32 {

	// Positive term: softplus(-score); ∂/∂score = -σ(-score).
	s := m.Score(h, r, t)
	loss := softplus(-s)
	m.ScoreGrad(h, r, t, -tensor.SigmoidScalar(-s), gh, gr, gt)

	// Negative terms: mean of softplus(score'); ∂/∂score' = σ(score')/K.
	if len(negs) > 0 {
		k := float32(len(negs))
		for i, tn := range negs {
			var gn []float32
			if gnegs != nil {
				gn = gnegs[i]
			}
			sn := m.Score(h, r, tn)
			loss += softplus(sn) / k
			m.ScoreGrad(h, r, tn, tensor.SigmoidScalar(sn)/k, gh, gr, gn)
		}
	}
	return loss
}
