package stats

import (
	"strings"
	"testing"
)

func TestBreakdown(t *testing.T) {
	b := Breakdown{Comm: 1, HostDRAM: 2, Cache: 3, Other: 4}
	if b.Total() != 10 {
		t.Fatalf("Total = %v", b.Total())
	}
	sum := b.Add(Breakdown{Comm: 1})
	if sum.Comm != 2 || sum.Other != 4 {
		t.Fatalf("Add = %+v", sum)
	}
	half := b.Scale(0.5)
	if half.Cache != 1.5 {
		t.Fatalf("Scale = %+v", half)
	}
	for _, c := range Components() {
		if b.Get(c) == 0 {
			t.Fatalf("Get(%s) = 0", c)
		}
	}
}

func TestBreakdownGetPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Breakdown{}.Get(Component("bogus"))
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, 0.5); got != 2000 {
		t.Fatalf("Throughput = %v", got)
	}
	if got := Throughput(1000, 0); got != 0 {
		t.Fatalf("zero-time Throughput = %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "Exp", XLabel: "batch", XTicks: []string{"128", "512"}, YLabel: "tput"}
	tb.AddSeries("Frugal", []float64{1e6, 2e6})
	tb.AddSeries("HugeCTR", []float64{2e5, 3e5})
	tb.Note("speedup %.1fx", 5.0)
	out := tb.Render()
	for _, want := range []string{"Exp", "Frugal", "HugeCTR", "128", "512", "speedup 5.0x", "1.00M"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAddSeriesLengthPanics(t *testing.T) {
	tb := &Table{XTicks: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.AddSeries("bad", []float64{1})
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:     "0",
		2.5e9: "2.50G",
		1.5e6: "1.50M",
		2500:  "2.5k",
		3.14:  "3.14",
		2e-3:  "2.00m",
		5e-6:  "5.0µ",
		7e-9:  "7.0n",
	}
	for in, want := range cases {
		if got := FormatValue(in); got != want {
			t.Fatalf("FormatValue(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRatioAndMinMax(t *testing.T) {
	if Ratio(10, 2) != 5 || Ratio(1, 0) != 0 {
		t.Fatal("Ratio wrong")
	}
	lo, hi := MinMax([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("empty MinMax should be 0,0")
	}
}

func TestAUC(t *testing.T) {
	// Perfect separation.
	if got := AUC([]float64{0.1, 0.2, 0.8, 0.9}, []float64{0, 0, 1, 1}); got != 1 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Perfectly wrong.
	if got := AUC([]float64{0.9, 0.8, 0.2, 0.1}, []float64{0, 0, 1, 1}); got != 0 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All ties → 0.5 via midranks.
	if got := AUC([]float64{0.5, 0.5, 0.5, 0.5}, []float64{0, 1, 0, 1}); got != 0.5 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Degenerate inputs.
	if got := AUC(nil, nil); got != 0.5 {
		t.Fatalf("empty AUC = %v", got)
	}
	if got := AUC([]float64{0.1, 0.9}, []float64{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v", got)
	}
	// A known partial ordering: pos {0.8, 0.4}, neg {0.6, 0.2}:
	// pairs won = (0.8>0.6)+(0.8>0.2)+(0.4>0.2) = 3 of 4 → 0.75.
	if got := AUC([]float64{0.8, 0.6, 0.4, 0.2}, []float64{1, 0, 1, 0}); got != 0.75 {
		t.Fatalf("partial AUC = %v, want 0.75", got)
	}
}
