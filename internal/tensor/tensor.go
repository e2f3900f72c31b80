// Package tensor provides the minimal dense float32 linear-algebra
// primitives needed by embedding-model training: vector arithmetic,
// matrix-vector and matrix-matrix products, activation functions, and
// parameter initialisation. It depends only on the standard library.
//
// All operations are written against plain []float32 slices so that the
// same routines operate on host-memory slabs, simulated GPU cache lines,
// and gradient buffers without copies.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Axpy computes dst += alpha * x elementwise. dst and x must have equal
// length; it panics otherwise because a silent size mismatch corrupts
// embedding rows. The 8-wide unrolled body keeps per-element order, so
// results are bitwise identical to the scalar loop.
func Axpy(alpha float32, x, dst []float32) {
	if len(x) != len(dst) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d != %d", len(x), len(dst)))
	}
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		xs := x[i : i+8 : i+8]
		ds := dst[i : i+8 : i+8]
		ds[0] += alpha * xs[0]
		ds[1] += alpha * xs[1]
		ds[2] += alpha * xs[2]
		ds[3] += alpha * xs[3]
		ds[4] += alpha * xs[4]
		ds[5] += alpha * xs[5]
		ds[6] += alpha * xs[6]
		ds[7] += alpha * xs[7]
	}
	for ; i < n; i++ {
		dst[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place (8-wide unrolled;
// elementwise, so bitwise identical to the scalar loop).
func Scale(alpha float32, x []float32) {
	n := len(x)
	i := 0
	for ; i+8 <= n; i += 8 {
		xs := x[i : i+8 : i+8]
		xs[0] *= alpha
		xs[1] *= alpha
		xs[2] *= alpha
		xs[3] *= alpha
		xs[4] *= alpha
		xs[5] *= alpha
		xs[6] *= alpha
		xs[7] *= alpha
	}
	for ; i < n; i++ {
		x[i] *= alpha
	}
}

// Dot returns the inner product of a and b. Four independent accumulators
// break the add dependency chain (≈3× on dim 512); the sum is reassociated
// relative to a scalar loop, but deterministically so — every caller sees
// the same value for the same inputs, which is what the engine-equivalence
// guarantee needs.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d != %d", len(a), len(b)))
	}
	n := len(a)
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		as := a[i : i+8 : i+8]
		bs := b[i : i+8 : i+8]
		s0 += as[0]*bs[0] + as[4]*bs[4]
		s1 += as[1]*bs[1] + as[5]*bs[5]
		s2 += as[2]*bs[2] + as[6]*bs[6]
		s3 += as[3]*bs[3] + as[7]*bs[7]
	}
	var t float32
	for ; i < n; i++ {
		t += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + t
}

// Copy copies src into dst and panics on length mismatch.
func Copy(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: copy length mismatch %d != %d", len(dst), len(src)))
	}
	copy(dst, src)
}

// Zero clears x. The range-assign form compiles to a runtime memclr, which
// already saturates store bandwidth — do not "unroll" it.
func Zero(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// CopyClear sets dst = src and zeroes src — the fused first-occurrence
// commit step: the (possibly recycled, dirty) delta buffer takes the raw
// gradient and the gradient buffer is returned to its all-zero resting
// state for the next step's compute. Both halves lower to runtime
// memmove/memclr calls. Panics on length mismatch.
func CopyClear(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: copyclear length mismatch %d != %d", len(dst), len(src)))
	}
	copy(dst, src)
	for i := range src {
		src[i] = 0
	}
}

// AccumClear adds src into dst and zeroes src — the fused repeat-occurrence
// commit step (duplicate keys in a batch sum their occurrence gradients).
// Panics on length mismatch.
func AccumClear(src, dst []float32) {
	Axpy(1, src, dst)
	for i := range src {
		src[i] = 0
	}
}

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// MulVec computes dst = m * x where x has length Cols and dst length Rows.
// Rows are processed four at a time so each load of x[j] feeds four
// dot-products; within a row the accumulation order matches the scalar
// loop, so results are bitwise identical to the naive implementation.
func (m *Matrix) MulVec(x, dst []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("tensor: mulvec shape mismatch m=%dx%d x=%d dst=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	cols := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		// Re-slicing each row to len(x) lets the compiler drop the r*[j]
		// bounds checks inside the fused loop.
		r0 := m.Data[i*cols:][:len(x)]
		r1 := m.Data[(i+1)*cols:][:len(x)]
		r2 := m.Data[(i+2)*cols:][:len(x)]
		r3 := m.Data[(i+3)*cols:][:len(x)]
		var s0, s1, s2, s3 float32
		for j, xv := range x {
			s0 += r0[j] * xv
			s1 += r1[j] * xv
			s2 += r2[j] * xv
			s3 += r3[j] * xv
		}
		dst[i] = s0
		dst[i+1] = s1
		dst[i+2] = s2
		dst[i+3] = s3
	}
	for ; i < m.Rows; i++ {
		row := m.Row(i)
		var s float32
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecT computes dst = mᵀ * x where x has length Rows and dst length Cols.
// It is used for back-propagating through a fully connected layer.
func (m *Matrix) MulVecT(x, dst []float32) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: mulvecT shape mismatch m=%dx%d x=%d dst=%d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	Zero(dst)
	cols := m.Cols
	i := 0
	// Four rows at a time: each pass over dst applies four rank-1 partials,
	// quartering the dst read/write traffic. The per-element accumulation
	// order matches the row-sequential scalar loop exactly (s += r0·x0 then
	// r1·x1, …), so results are bitwise identical — including the xi == 0
	// row-skip, which the blocked path preserves by falling back to the
	// scalar loop for blocks containing a zero coefficient (skipping a row
	// is not the same as adding xi*v when v is ±Inf or NaN).
	for ; i+4 <= m.Rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			// ReLU-masked gradients make zero coefficients common; handle
			// just this block row-sequentially and keep blocking the rest.
			for r := i; r < i+4; r++ {
				xi := x[r]
				if xi == 0 {
					continue
				}
				row := m.Row(r)
				for j, v := range row {
					dst[j] += v * xi
				}
			}
			continue
		}
		r0 := m.Data[i*cols:][:len(dst)]
		r1 := m.Data[(i+1)*cols:][:len(dst)]
		r2 := m.Data[(i+2)*cols:][:len(dst)]
		r3 := m.Data[(i+3)*cols:][:len(dst)]
		for j := range dst {
			s := dst[j]
			s += r0[j] * x0
			s += r1[j] * x1
			s += r2[j] * x2
			s += r3[j] * x3
			dst[j] = s
		}
	}
	for ; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// AddOuter accumulates m += alpha * a ⊗ b (outer product), with a of length
// Rows and b of length Cols. It is the weight-gradient update of a dense
// layer.
func (m *Matrix) AddOuter(alpha float32, a, b []float32) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: addouter shape mismatch m=%dx%d a=%d b=%d",
			m.Rows, m.Cols, len(a), len(b)))
	}
	for i := 0; i < m.Rows; i++ {
		ai := alpha * a[i]
		if ai == 0 {
			continue
		}
		// Per-row saxpy, 8-wide unrolled (elementwise — bitwise identical
		// to the scalar loop).
		row := m.Row(i)[:len(b)]
		n := len(b)
		j := 0
		for ; j+8 <= n; j += 8 {
			bs := b[j : j+8 : j+8]
			rs := row[j : j+8 : j+8]
			rs[0] += ai * bs[0]
			rs[1] += ai * bs[1]
			rs[2] += ai * bs[2]
			rs[3] += ai * bs[3]
			rs[4] += ai * bs[4]
			rs[5] += ai * bs[5]
			rs[6] += ai * bs[6]
			rs[7] += ai * bs[7]
		}
		for ; j < n; j++ {
			row[j] += ai * b[j]
		}
	}
}

// ArgMax returns the index of the largest element of x (the first one on
// ties), or -1 for an empty slice. It is the centroid-assignment primitive:
// nearest-by-L2 reduces to ArgMax over dot(c,x) - ||c||²/2, so assignment
// is one MulVec, one Axpy and one ArgMax.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	bv := x[0]
	for i := 1; i < len(x); i++ {
		if x[i] > bv {
			best, bv = i, x[i]
		}
	}
	return best
}

// TopIndices fills idx with the indices of the len(idx) largest elements
// of x, in descending score order (ties broken toward the lower index),
// and returns how many it wrote (min(len(idx), len(x))). It is the probe
// selector of the inverted-file index: pick the top-P centroids from a
// scored list of C without sorting all C. The selection is kept sorted
// in place and maintained by insertion: one branch-predictable compare
// against the current cutoff per element, plus O(P) shifting on the
// ~P·ln(C/P) expected improvements — cheaper in practice than a bounded
// heap, whose every operation chases parent/child links.
func TopIndices(x []float32, idx []int) int {
	p := len(idx)
	if p > len(x) {
		p = len(x)
	}
	if p == 0 {
		return 0
	}
	// beats reports whether element a outranks element b: larger score,
	// or equal score with the lower index.
	beats := func(a, b int) bool {
		return x[a] > x[b] || (x[a] == x[b] && a < b)
	}
	// insert v into the sorted prefix idx[:n], dropping the last element.
	insert := func(n, v int) {
		i := n - 1
		for ; i > 0 && beats(v, idx[i-1]); i-- {
			idx[i] = idx[i-1]
		}
		idx[i] = v
	}
	n := 0
	for v := range x {
		switch {
		case n < p:
			n++
			insert(n, v)
		case beats(v, idx[p-1]):
			insert(p, v)
		}
	}
	return p
}

// ReLU applies max(0, x) in place and returns a mask of activated units for
// use in the backward pass (1 where x > 0, else 0).
func ReLU(x []float32, mask []float32) {
	for i, v := range x {
		if v > 0 {
			mask[i] = 1
		} else {
			x[i] = 0
			mask[i] = 0
		}
	}
}

// ReLUBackward multiplies grad by the activation mask in place.
func ReLUBackward(grad, mask []float32) {
	for i := range grad {
		grad[i] *= mask[i]
	}
}

// SigmoidScalar computes the logistic function of a single value.
func SigmoidScalar(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// XavierInit fills x with values uniform in ±sqrt(6/(fanIn+fanOut)),
// the Glorot initialisation used by DLRM's embedding and MLP layers.
func XavierInit(rng *rand.Rand, x []float32, fanIn, fanOut int) {
	if fanIn+fanOut <= 0 {
		panic("tensor: xavier init with non-positive fan sum")
	}
	bound := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	for i := range x {
		x[i] = (rng.Float32()*2 - 1) * bound
	}
}

// UniformInit fills x with values uniform in [-bound, +bound].
func UniformInit(rng *rand.Rand, x []float32, bound float32) {
	for i := range x {
		x[i] = (rng.Float32()*2 - 1) * bound
	}
}
