package model

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"frugal/internal/tensor"
)

func TestNewMLPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP(rng, 8); err == nil {
		t.Fatal("single-dim MLP should error")
	}
	if _, err := NewMLP(rng, 8, 0, 1); err == nil {
		t.Fatal("zero dim should error")
	}
	m, err := NewMLP(rng, 32, 512, 512, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.w) != 4 || m.dims[0] != 32 || m.dims[len(m.dims)-1] != 1 {
		t.Fatalf("shape: layers=%d dims=%v", len(m.w), m.dims)
	}
}

func TestMLPForwardDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := NewMLP(rng, 4, 8, 1)
	s := m.NewScratch()
	x := []float32{1, -2, 3, 0.5}
	a := m.Forward(x, s)
	b := m.Forward(x, s)
	if a != b {
		t.Fatalf("same input → different logits: %v vs %v", a, b)
	}
}

func TestMLPInputDimPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, _ := NewMLP(rng, 4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward([]float32{1}, m.NewScratch())
}

// TestMLPGradientCheck verifies the analytic input gradient against finite
// differences of the loss.
func TestMLPGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, _ := NewMLP(rng, 6, 10, 5, 1)
	s := m.NewScratch()
	x := make([]float32, 6)
	tensor.UniformInit(rng, x, 1)
	label := float32(1)

	lossAt := func(x []float32) float64 {
		logit := m.Forward(x, s)
		loss, _ := BCELoss(logit, label)
		return float64(loss)
	}
	logit := m.Forward(x, s)
	_, dLogit := BCELoss(logit, label)
	analytic := append([]float32{}, m.Backward(dLogit, s)...)
	m.Step(0, 1) // discard accumulated weight grads (lr=0)

	const eps = 1e-3
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		up := lossAt(x)
		x[i] = orig - eps
		down := lossAt(x)
		x[i] = orig
		numeric := (up - down) / (2 * eps)
		if diff := math.Abs(numeric - float64(analytic[i])); diff > 2e-2 {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, analytic[i], numeric)
		}
	}
}

func TestMLPLearnsXORishTask(t *testing.T) {
	// The MLP must fit a small nonlinear function — proof that Backward
	// and Step update weights in the right direction.
	rng := rand.New(rand.NewSource(4))
	m, _ := NewMLP(rng, 2, 16, 1)
	s := m.NewScratch()
	inputs := [][]float32{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []float32{0, 1, 1, 0}
	var first, last float32
	for epoch := 0; epoch < 3000; epoch++ {
		var total float32
		for i, x := range inputs {
			logit := m.Forward(x, s)
			loss, dLogit := BCELoss(logit, labels[i])
			total += loss
			m.Backward(dLogit, s)
		}
		m.Step(0.5, len(inputs))
		if epoch == 0 {
			first = total
		}
		last = total
	}
	if last > first/4 {
		t.Fatalf("XOR loss did not drop: first=%v last=%v", first, last)
	}
}

func TestBCELossExtremes(t *testing.T) {
	loss, d := BCELoss(100, 1)
	if loss > 0.01 || math.Abs(float64(d)) > 0.01 {
		t.Fatalf("confident correct: loss=%v d=%v", loss, d)
	}
	loss, d = BCELoss(-100, 1)
	if loss < 5 || d > -0.9 {
		t.Fatalf("confident wrong: loss=%v d=%v", loss, d)
	}
	if l0, _ := BCELoss(0, 0); math.Abs(float64(l0)-math.Ln2) > 1e-5 {
		t.Fatalf("BCE(0,0) = %v, want ln2", l0)
	}
}

func TestNewDLRMValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, err := NewDLRM(rng, 0, 32, nil); err == nil {
		t.Fatal("0 features should error")
	}
	d, err := NewDLRM(rng, 26, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.features != 26 || d.Dim() != 32 {
		t.Fatal("shape accessors wrong")
	}
	if len(d.top.w) != 4 {
		t.Fatalf("default top net layers = %d, want 4 (512-512-256-1)", len(d.top.w))
	}
}

func TestDLRMTrainBatchShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, _ := NewDLRM(rng, 2, 4, []int{8})
	embs := make([][]float32, 2)
	grads := make([][]float32, 1)
	if _, err := d.TrainBatch(embs, []float32{1}, grads, nil, 0.1); err == nil {
		t.Fatal("mismatched grads should error")
	}
}

func TestDLRMLearnsEmbeddings(t *testing.T) {
	// End-to-end: train DLRM where labels depend on which embedding rows
	// are present; applying the returned row gradients must reduce loss.
	rng := rand.New(rand.NewSource(7))
	const features, dim, rows = 3, 8, 20
	d, err := NewDLRM(rng, features, dim, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	table := make([][]float32, rows)
	for i := range table {
		table[i] = make([]float32, dim)
		tensor.XavierInit(rng, table[i], rows, dim)
	}
	label := func(keys []int) float32 {
		s := 0
		for _, k := range keys {
			s += k
		}
		if s%2 == 0 {
			return 1
		}
		return 0
	}
	const batch = 16
	embs := make([][]float32, batch*features)
	grads := make([][]float32, batch*features)
	for i := range grads {
		grads[i] = make([]float32, dim)
	}
	labels := make([]float32, batch)
	keys := make([]int, batch*features)

	var first, last float32
	for step := 0; step < 400; step++ {
		for s := 0; s < batch; s++ {
			ks := make([]int, features)
			for f := 0; f < features; f++ {
				k := rng.Intn(rows)
				ks[f] = k
				keys[s*features+f] = k
				embs[s*features+f] = table[k]
			}
			labels[s] = label(ks)
		}
		loss, err := d.TrainBatch(embs, labels, grads, nil, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		// Apply embedding gradients (what the runtime's commit path does).
		for i, g := range grads {
			tensor.Axpy(-0.05, g, table[keys[i]])
		}
		if step == 0 {
			first = loss
		}
		last = loss
	}
	if last > first*0.8 {
		t.Fatalf("DLRM loss did not drop: first=%v last=%v", first, last)
	}
}

// --- KG models --------------------------------------------------------

func kgVecs(rng *rand.Rand, dim int) (h, r, tt []float32) {
	h = make([]float32, dim)
	r = make([]float32, dim)
	tt = make([]float32, dim)
	tensor.UniformInit(rng, h, 0.5)
	tensor.UniformInit(rng, r, 0.5)
	tensor.UniformInit(rng, tt, 0.5)
	return
}

func TestKGModelByName(t *testing.T) {
	for _, name := range []string{"TransE", "DistMult", "ComplEx", "SimplE"} {
		m, err := KGModelByName(name)
		if err != nil || kgName(m) != name {
			t.Fatalf("KGModelByName(%s): %v", name, err)
		}
	}
	if _, err := KGModelByName("RotatE"); err == nil {
		t.Fatal("unknown model should error")
	}
}

// kgName names a model by its type ("TransE", "DistMult", …).
func kgName(m TripleModel) string {
	t := reflect.TypeOf(m)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// kgModels is the Exp #11 model sweep, in figure order.
func kgModels() []TripleModel {
	return []TripleModel{ComplEx{}, DistMult{}, SimplE{}, NewTransE(4)}
}

// TestKGScoreGradCheck verifies every model's analytic gradients against
// finite differences of the score.
func TestKGScoreGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const dim = 8
	for _, m := range kgModels() {
		t.Run(kgName(m), func(t *testing.T) {
			h, r, tt := kgVecs(rng, dim)
			gh := make([]float32, dim)
			gr := make([]float32, dim)
			gt := make([]float32, dim)
			s := m.ScoreGrad(h, r, tt, 1, gh, gr, gt)
			if got := m.Score(h, r, tt); math.Abs(float64(got-s)) > 1e-5 {
				t.Fatalf("Score (%v) and ScoreGrad (%v) disagree", got, s)
			}
			const eps = 1e-3
			check := func(vec, grad []float32, name string) {
				for i := range vec {
					orig := vec[i]
					vec[i] = orig + eps
					up := float64(m.Score(h, r, tt))
					vec[i] = orig - eps
					down := float64(m.Score(h, r, tt))
					vec[i] = orig
					numeric := (up - down) / (2 * eps)
					// TransE's L1 gradient is non-smooth at 0; tolerate it.
					if diff := math.Abs(numeric - float64(grad[i])); diff > 5e-2 {
						t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, grad[i], numeric)
					}
				}
			}
			check(h, gh, "h")
			check(r, gr, "r")
			check(tt, gt, "t")
		})
	}
}

func TestKGScoreGradNilBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h, r, tt := kgVecs(rng, 8)
	for _, m := range kgModels() {
		// Must not panic with nil gradient buffers.
		m.ScoreGrad(h, r, tt, 1, nil, nil, nil)
	}
}

func TestTrainTripleSeparatesPosFromNegs(t *testing.T) {
	// Training on a fixed positive against random negatives must raise the
	// positive score above the negatives — for every model.
	rng := rand.New(rand.NewSource(10))
	const dim, negK = 8, 4
	for _, m := range kgModels() {
		t.Run(kgName(m), func(t *testing.T) {
			h, r, tt := kgVecs(rng, dim)
			negs := make([][]float32, negK)
			gnegs := make([][]float32, negK)
			for i := range negs {
				negs[i] = make([]float32, dim)
				tensor.UniformInit(rng, negs[i], 0.5)
				gnegs[i] = make([]float32, dim)
			}
			gh := make([]float32, dim)
			gr := make([]float32, dim)
			gt := make([]float32, dim)
			var first, last float32
			for step := 0; step < 300; step++ {
				tensor.Zero(gh)
				tensor.Zero(gr)
				tensor.Zero(gt)
				for _, g := range gnegs {
					tensor.Zero(g)
				}
				loss := TrainTriple(m, h, r, tt, negs, gh, gr, gt, gnegs)
				tensor.Axpy(-0.05, gh, h)
				tensor.Axpy(-0.05, gr, r)
				tensor.Axpy(-0.05, gt, tt)
				for i := range negs {
					tensor.Axpy(-0.05, gnegs[i], negs[i])
				}
				if step == 0 {
					first = loss
				}
				last = loss
			}
			if last >= first {
				t.Fatalf("loss did not drop: first=%v last=%v", first, last)
			}
			pos := m.Score(h, r, tt)
			for i, n := range negs {
				if m.Score(h, r, n) >= pos {
					t.Fatalf("negative %d scores above positive after training", i)
				}
			}
		})
	}
}

func TestTransEGammaDefault(t *testing.T) {
	if NewTransE(0).Gamma != 12 {
		t.Fatal("default gamma should be 12")
	}
	if NewTransE(5).Gamma != 5 {
		t.Fatal("explicit gamma ignored")
	}
}

func TestSoftplus(t *testing.T) {
	if got := softplus(100); got != 100 {
		t.Fatalf("softplus(100) = %v", got)
	}
	if got := softplus(0); math.Abs(float64(got)-math.Ln2) > 1e-6 {
		t.Fatalf("softplus(0) = %v, want ln2", got)
	}
}

// --- GNN scorer ---------------------------------------------------------

func TestGNNScorerValidation(t *testing.T) {
	if _, err := NewGNNScorer(0); err == nil {
		t.Fatal("dim=0 must error")
	}
	g, err := NewGNNScorer(8)
	if err != nil || g.Dim() != 8 {
		t.Fatalf("accessors wrong: %v", err)
	}
}

// TestGNNGradCheck verifies the analytic embedding gradients against
// finite differences of the loss.
func TestGNNGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const dim, fan = 6, 2
	sc, _ := NewGNNScorer(dim)
	mk := func() []float32 {
		v := make([]float32, dim)
		tensor.UniformInit(rng, v, 0.5)
		return v
	}
	u, v := mk(), mk()
	uN := [][]float32{mk(), mk()}
	vN := [][]float32{mk(), mk()}
	lossAt := func() float64 {
		logit := sc.Score(u, uN, v, vN)
		loss, _ := BCELoss(logit, 1)
		return float64(loss)
	}
	gu, gv := make([]float32, dim), make([]float32, dim)
	guN := [][]float32{make([]float32, dim), make([]float32, dim)}
	gvN := [][]float32{make([]float32, dim), make([]float32, dim)}
	sc.TrainPair(1, u, uN, v, vN, gu, guN, gv, gvN)

	const eps = 1e-3
	check := func(vec, grad []float32, name string) {
		for i := range vec {
			orig := vec[i]
			vec[i] = orig + eps
			up := lossAt()
			vec[i] = orig - eps
			down := lossAt()
			vec[i] = orig
			numeric := (up - down) / (2 * eps)
			if diff := math.Abs(numeric - float64(grad[i])); diff > 2e-2 {
				t.Fatalf("%s grad[%d]: analytic %v vs numeric %v", name, i, grad[i], numeric)
			}
		}
	}
	check(u, gu, "u")
	check(v, gv, "v")
	check(uN[0], guN[0], "uN0")
	check(vN[1], gvN[1], "vN1")
}

func TestGNNLearnsLinkStructure(t *testing.T) {
	// Two communities; edges exist within a community. Training must push
	// intra-community scores above cross-community ones.
	rng := rand.New(rand.NewSource(45))
	const dim, fan, nodes = 8, 2, 40
	sc, _ := NewGNNScorer(dim)
	emb := make([][]float32, nodes)
	for i := range emb {
		emb[i] = make([]float32, dim)
		tensor.UniformInit(rng, emb[i], 0.3)
	}
	community := func(n int) int { return n % 2 }
	sampleNbr := func(n int) int { // neighbor in same community
		for {
			m := rng.Intn(nodes)
			if community(m) == community(n) && m != n {
				return m
			}
		}
	}
	nbrs := func(n int) ([][]float32, [][]float32, []int) {
		rows := make([][]float32, fan)
		grads := make([][]float32, fan)
		ids := make([]int, fan)
		for i := 0; i < fan; i++ {
			ids[i] = sampleNbr(n)
			rows[i] = emb[ids[i]]
			grads[i] = make([]float32, dim)
		}
		return rows, grads, ids
	}
	const lr = 0.3
	for step := 0; step < 1500; step++ {
		u := rng.Intn(nodes)
		v := sampleNbr(u)                          // positive: same community
		w := (u + 1 + 2*rng.Intn(nodes/2)) % nodes // negative: other community
		uN, guN, uIDs := nbrs(u)
		vN, gvN, vIDs := nbrs(v)
		wN, gwN, wIDs := nbrs(w)
		gu := make([]float32, dim)
		gv := make([]float32, dim)
		gw := make([]float32, dim)
		sc.TrainPair(1, emb[u], uN, emb[v], vN, gu, guN, gv, gvN)
		sc.TrainPair(0, emb[u], uN, emb[w], wN, gu, guN, gw, gwN)
		tensor.Axpy(-lr, gu, emb[u])
		tensor.Axpy(-lr, gv, emb[v])
		tensor.Axpy(-lr, gw, emb[w])
		for i := 0; i < fan; i++ {
			tensor.Axpy(-lr, guN[i], emb[uIDs[i]])
			tensor.Axpy(-lr, gvN[i], emb[vIDs[i]])
			tensor.Axpy(-lr, gwN[i], emb[wIDs[i]])
		}
	}
	// Evaluate separation.
	var intra, cross float32
	for i := 0; i < 200; i++ {
		u := rng.Intn(nodes)
		v := sampleNbr(u)
		w := (u + 1) % nodes
		uN, _, _ := nbrs(u)
		vN, _, _ := nbrs(v)
		wN, _, _ := nbrs(w)
		intra += sc.Score(emb[u], uN, emb[v], vN)
		cross += sc.Score(emb[u], uN, emb[w], wN)
	}
	if intra <= cross {
		t.Fatalf("intra-community score (%v) must beat cross (%v)", intra/200, cross/200)
	}
}
