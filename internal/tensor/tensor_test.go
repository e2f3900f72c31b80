package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float32) bool {
	return math.Abs(float64(a-b)) <= float64(eps)
}

func TestAxpy(t *testing.T) {
	dst := []float32{1, 2, 3}
	Axpy(2, []float32{10, 20, 30}, dst)
	want := []float32{21, 42, 63}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("axpy[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAxpyMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Axpy(1, []float32{1}, []float32{1, 2})
}

func TestDot(t *testing.T) {
	got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6})
	if got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestZeroAndScale(t *testing.T) {
	x := []float32{1, 2}
	Scale(3, x)
	if x[0] != 3 || x[1] != 6 {
		t.Fatalf("scale = %v", x)
	}
	Zero(x)
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("zero = %v", x)
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	dst := make([]float32, 2)
	m.MulVec([]float32{1, 1, 1}, dst)
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("mulvec = %v", dst)
	}
}

func TestMatrixMulVecT(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	dst := make([]float32, 3)
	m.MulVecT([]float32{1, 1}, dst)
	want := []float32{5, 7, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("mulvecT = %v, want %v", dst, want)
		}
	}
}

func TestMatrixAddOuter(t *testing.T) {
	m := NewMatrix(2, 2)
	m.AddOuter(1, []float32{1, 2}, []float32{3, 4})
	want := []float32{3, 4, 6, 8}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("addouter = %v, want %v", m.Data, want)
		}
	}
}

func TestMatrixShapePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for name, f := range map[string]func(){
		"mulvec":   func() { m.MulVec(make([]float32, 3), make([]float32, 2)) },
		"mulvecT":  func() { m.MulVecT(make([]float32, 3), make([]float32, 2)) },
		"addouter": func() { m.AddOuter(1, make([]float32, 3), make([]float32, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected shape panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReLUForwardBackward(t *testing.T) {
	x := []float32{-1, 0, 2}
	mask := make([]float32, 3)
	ReLU(x, mask)
	if x[0] != 0 || x[1] != 0 || x[2] != 2 {
		t.Fatalf("relu = %v", x)
	}
	grad := []float32{5, 5, 5}
	ReLUBackward(grad, mask)
	if grad[0] != 0 || grad[1] != 0 || grad[2] != 5 {
		t.Fatalf("relu backward = %v", grad)
	}
}

func TestSigmoid(t *testing.T) {
	if got := SigmoidScalar(0); !almostEqual(got, 0.5, 1e-6) {
		t.Fatalf("sigmoid(0) = %v", got)
	}
	if got := SigmoidScalar(100); got < 0.999 {
		t.Fatalf("sigmoid(100) = %v", got)
	}
	if got := SigmoidScalar(-100); got > 0.001 {
		t.Fatalf("sigmoid(-100) = %v", got)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, 1000)
	XavierInit(rng, x, 50, 50)
	bound := float32(math.Sqrt(6.0 / 100.0))
	for i, v := range x {
		if v < -bound || v > bound {
			t.Fatalf("xavier[%d] = %v outside ±%v", i, v, bound)
		}
	}
	// Not all zero.
	if Dot(x, x) == 0 {
		t.Fatal("xavier produced all zeros")
	}
}

// Property: dot is symmetric and bilinear under scaling.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		d1, d2 := Dot(a, b), Dot(b, a)
		return d1 == d2 || (math.IsNaN(float64(d1)) && math.IsNaN(float64(d2)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: axpy with alpha=0 is identity.
func TestAxpyZeroAlphaProperty(t *testing.T) {
	f := func(x []float32) bool {
		dst := make([]float32, len(x))
		copy(dst, x)
		Axpy(0, x, dst)
		for i := range dst {
			if dst[i] != x[i] && !(math.IsNaN(float64(dst[i])) && math.IsNaN(float64(x[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVec followed by MulVecT of a one-hot vector recovers scaled rows.
func TestMatrixRowAliasProperty(t *testing.T) {
	m := NewMatrix(4, 3)
	for i := range m.Data {
		m.Data[i] = float32(i)
	}
	for i := 0; i < 4; i++ {
		row := m.Row(i)
		for j := 0; j < 3; j++ {
			if row[j] != m.Data[i*m.Cols+j] {
				t.Fatalf("row alias mismatch at (%d,%d)", i, j)
			}
		}
	}
	m.Data[2*m.Cols+1] = 99
	if m.Row(2)[1] != 99 {
		t.Fatal("element write not visible through Row")
	}
}
