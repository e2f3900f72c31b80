package data

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestUniformRange(t *testing.T) {
	u := NewUniform(1, 100)
	for i := 0; i < 10000; i++ {
		if k := u.Next(); k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	const n = 100000
	z := NewZipf(1, n, 0.99)
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k >= n {
			t.Fatalf("key %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 must be by far the hottest key under theta=0.99.
	if counts[0] < draws/100 {
		t.Fatalf("rank 0 drawn %d times of %d — not skewed", counts[0], draws)
	}
	// The top-1% of keys must absorb the majority of accesses.
	var freqs []int
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := 0
	limit := n / 100
	for i := 0; i < limit && i < len(freqs); i++ {
		top += freqs[i]
	}
	if float64(top)/draws < 0.5 {
		t.Fatalf("top-1%% keys take %.2f of traffic, want > 0.5", float64(top)/draws)
	}
}

func TestZipfLowerThetaLessSkewed(t *testing.T) {
	mass := func(theta float64) float64 {
		z := NewZipf(7, 100000, theta)
		hot := 0
		const draws = 100000
		for i := 0; i < draws; i++ {
			if z.Next() < 100 {
				hot++
			}
		}
		return float64(hot) / draws
	}
	if m09, m099 := mass(0.9), mass(0.99); m09 >= m099 {
		t.Fatalf("theta 0.9 mass %.3f should be below theta 0.99 mass %.3f", m09, m099)
	}
}

func TestScrambledZipfSpreadsHotKeys(t *testing.T) {
	z := NewScrambledZipf(1, 1000000, 0.9)
	low := 0
	for i := 0; i < 10000; i++ {
		if z.Next() < 1000 {
			low++
		}
	}
	// Unscrambled zipf would put ~most draws below 1000; scrambled must not.
	if low > 1000 {
		t.Fatalf("%d of 10000 draws in the lowest 0.1%% of key space — not scrambled", low)
	}
}

func TestZipfPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(1, 0, 0.9) },
		func() { NewZipf(1, 10, 0) },
		func() { NewZipf(1, 10, 1) },
		func() { NewUniform(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestZetaTailApproximation(t *testing.T) {
	// The integral tail must be close to the true sum for a case we can
	// afford to compute directly.
	direct := 0.0
	const n = 20_000_000
	for i := 1; i <= n; i++ {
		direct += 1 / math.Pow(float64(i), 0.9)
	}
	approx := zeta(n, 0.9)
	if rel := math.Abs(approx-direct) / direct; rel > 0.01 {
		t.Fatalf("zeta tail approximation off by %.4f", rel)
	}
}

func TestNewGen(t *testing.T) {
	for _, d := range Distributions() {
		g, err := NewGen(d, 1, 1000)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		for i := 0; i < 1000; i++ {
			if k := g.Next(); k >= 1000 {
				t.Fatalf("%s: key %d outside [0, 1000)", d, k)
			}
		}
	}
	if _, err := NewGen("bogus", 1, 10); err == nil {
		t.Fatal("unknown distribution should error")
	}
}

func TestTable2Registry(t *testing.T) {
	specs := Specs()
	if len(specs) != 6 {
		t.Fatalf("registry has %d datasets, want 6", len(specs))
	}
	for _, s := range specs {
		got, err := SpecByName(s.Name)
		if err != nil || got.Name != s.Name {
			t.Fatalf("SpecByName(%s): %v", s.Name, err)
		}
		if s.KeySpace() == 0 || s.ModelSizeBytes == 0 || s.EmbDim == 0 {
			t.Fatalf("%s: incomplete spec %+v", s.Name, s)
		}
	}
	if _, err := SpecByName("MovieLens"); err == nil {
		t.Fatal("unknown dataset should error")
	}
	// Table 2 headline shapes.
	if Avazu.Features != 22 || Criteo.Features != 26 || CriteoTB.IDs != 882_000_000 {
		t.Fatal("REC shapes disagree with Table 2")
	}
	if Freebase.Relations != 14_800 || WikiKG.Relations != 1_300 {
		t.Fatal("KG shapes disagree with Table 2")
	}
}

func TestSpecScaled(t *testing.T) {
	s := CriteoTB.Scaled(10000)
	if s.IDs >= CriteoTB.IDs || s.IDs < 100_000 {
		t.Fatalf("scaled IDs = %d", s.IDs)
	}
	if s.Features != CriteoTB.Features || s.EmbDim != CriteoTB.EmbDim {
		t.Fatal("scaling must preserve shape")
	}
	if s.ModelSizeBytes != int64(s.KeySpace())*int64(s.EmbDim)*4 {
		t.Fatal("scaled model size not recomputed")
	}
	if got := FB15k.Scaled(1); got != FB15k {
		t.Fatal("factor 1 must be identity")
	}
	kg := Freebase.Scaled(1 << 40)
	if kg.Vertices < 10_000 || kg.Relations < 100 {
		t.Fatalf("scaling floor violated: %+v", kg)
	}
}

func TestSyntheticTrace(t *testing.T) {
	tr := NewSyntheticTrace(NewUniform(1, 100), 16, 3)
	seen := 0
	for {
		keys, ok := tr.Next()
		if !ok {
			break
		}
		if len(keys) != 16 {
			t.Fatalf("batch len = %d", len(keys))
		}
		seen++
	}
	if seen != 3 || tr.Steps() != 3 {
		t.Fatalf("trace yielded %d steps", seen)
	}
}

func TestRECStream(t *testing.T) {
	spec := Avazu.Scaled(1000)
	s, err := NewRECStream(spec, 1, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Spec().Name != "Avazu" || s.Steps() != 5 {
		t.Fatal("stream metadata wrong")
	}
	ones := 0
	total := 0
	for {
		b, ok := s.NextBatch()
		if !ok {
			break
		}
		if len(b.Keys) != 8*spec.Features || len(b.Labels) != 8 {
			t.Fatalf("batch shape: keys=%d labels=%d", len(b.Keys), len(b.Labels))
		}
		for _, k := range b.Keys {
			if k >= uint64(spec.IDs) {
				t.Fatalf("key %d out of ID space %d", k, spec.IDs)
			}
		}
		for _, l := range b.Labels {
			if l != 0 && l != 1 {
				t.Fatalf("label %v not binary", l)
			}
			if l == 1 {
				ones++
			}
			total++
		}
	}
	if ones == 0 || ones == total {
		t.Fatalf("labels degenerate: %d/%d positive", ones, total)
	}
}

func TestRECStreamValidation(t *testing.T) {
	if _, err := NewRECStream(FB15k, 1, 8, 5); err == nil {
		t.Fatal("KG spec must be rejected")
	}
	if _, err := NewRECStream(Avazu, 1, 8, 0); err == nil {
		t.Fatal("steps=0 must be rejected")
	}
}

func TestKGStream(t *testing.T) {
	spec := FB15k.Scaled(10)
	s, err := NewKGStream(spec, 1, 4, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := s.NextBatch()
	if !ok {
		t.Fatal("empty stream")
	}
	if len(b.Heads) != 4 || len(b.Rels) != 4 || len(b.Tails) != 4 || len(b.Negs) != 16 {
		t.Fatalf("batch shape wrong: %+v", b)
	}
	ents := uint64(spec.Vertices)
	for i := range b.Heads {
		if b.Heads[i] >= ents || b.Tails[i] >= ents {
			t.Fatal("entity key out of range")
		}
		if b.Rels[i] < ents || b.Rels[i] >= ents+uint64(spec.Relations) {
			t.Fatalf("relation key %d outside relation range", b.Rels[i])
		}
	}
	keys := b.AllKeys(nil)
	if len(keys) != 4*3+16 {
		t.Fatalf("AllKeys len = %d", len(keys))
	}
}

func TestKGStreamValidation(t *testing.T) {
	if _, err := NewKGStream(Avazu, 1, 4, 4, 3); err == nil {
		t.Fatal("REC spec must be rejected")
	}
	if _, err := NewKGStream(FB15k, 1, 4, 4, 0); err == nil {
		t.Fatal("steps=0 must be rejected")
	}
}

func TestPayloadTrace(t *testing.T) {
	n := 0
	tr := NewPayloadTrace(func() (string, []uint64, bool) {
		if n >= 3 {
			return "", nil, false
		}
		n++
		return string(rune('a' + n - 1)), []uint64{uint64(n)}, true
	})
	for i := 0; i < 3; i++ {
		keys, ok := tr.Next()
		if !ok || keys[0] != uint64(i+1) {
			t.Fatalf("Next %d = %v,%v", i, keys, ok)
		}
	}
	if _, ok := tr.Next(); ok {
		t.Fatal("exhausted trace should report done")
	}
	for _, s := range []int64{1, 0, 2} {
		if got, want := tr.Take(s), string(rune('a'+s)); got != want {
			t.Fatalf("Take(%d) = %q, want %q", s, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Take must panic")
		}
	}()
	tr.Take(1)
}

// TestPayloadTraceTakeWhileGenerating takes an already generated step
// while the generator is blocked producing the next one: Take must not
// wait for the generator.
func TestPayloadTraceTakeWhileGenerating(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	calls := 0
	tr := NewPayloadTrace(func() (int, []uint64, bool) {
		calls++
		if calls == 2 {
			close(entered)
			<-release
		}
		return calls, nil, true
	})
	tr.Next() // step 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.Next() // step 1: blocks in the generator until release
	}()
	defer func() {
		close(release)
		<-done
	}()
	<-entered
	took := make(chan int, 1)
	go func() { took <- tr.Take(0) }()
	select {
	case got := <-took:
		if got != 1 {
			t.Fatalf("Take(0) = %d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Take(0) blocked behind the generator of step 1")
	}
}

func TestReadKeyTrace(t *testing.T) {
	in := "1 2 3\n\n4 5 6\n7 8 9\n"
	tr, err := ReadKeyTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Steps() != 3 || tr.Batch() != 3 {
		t.Fatalf("shape: steps=%d batch=%d", tr.Steps(), tr.Batch())
	}
	if tr.MaxKey() != 9 {
		t.Fatalf("MaxKey = %d", tr.MaxKey())
	}
	b1, ok := tr.Next()
	if !ok || b1[0] != 1 || b1[2] != 3 {
		t.Fatalf("first batch = %v", b1)
	}
	tr.Next()
	tr.Next()
	if _, ok := tr.Next(); ok {
		t.Fatal("exhausted trace should report done")
	}
}

func TestReadKeyTraceErrors(t *testing.T) {
	if _, err := ReadKeyTrace(strings.NewReader("")); err == nil {
		t.Fatal("empty trace must error")
	}
	if _, err := ReadKeyTrace(strings.NewReader("1 x 3\n")); err == nil {
		t.Fatal("malformed key must error")
	}
}

// TestTraceRoundtrip: a synthetic trace written in the datagen format and
// read back must replay identically.
func TestTraceRoundtrip(t *testing.T) {
	gen := NewSyntheticTrace(NewUniform(3, 500), 8, 5)
	var sb strings.Builder
	var recorded [][]uint64
	for {
		keys, ok := gen.Next()
		if !ok {
			break
		}
		recorded = append(recorded, keys)
		for i, k := range keys {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", k)
		}
		sb.WriteByte('\n')
	}
	tr, err := ReadKeyTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range recorded {
		got, ok := tr.Next()
		if !ok || len(got) != len(want) {
			t.Fatal("replay shape mismatch")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatal("replay content mismatch")
			}
		}
	}
}
