package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func topo(t *testing.T, spec GPUSpec, n int) *Topology {
	t.Helper()
	tp, err := NewTopology(spec, n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestTable1CostPerformanceRatio(t *testing.T) {
	// Table 1: RTX 4090 dollar-per-TFLOPS is ~18-19% of A100's, i.e. the
	// cost-performance ratio of the 4090 is ~5.4x the A100's.
	r4090 := RTX4090.DollarPerFP32TFLOPS()
	rA100 := A100.DollarPerFP32TFLOPS()
	ratio := rA100 / r4090
	if ratio < 4.8 || ratio > 6.0 {
		t.Fatalf("A100/4090 $-per-TFLOPS ratio = %.2f, want ~5.4", ratio)
	}
}

func TestNewTopologyValidation(t *testing.T) {
	if _, err := NewTopology(A30, 0, DefaultParams()); err == nil {
		t.Fatal("expected error for 0 GPUs")
	}
	p := DefaultParams()
	p.RootComplexGBps = 0
	if _, err := NewTopology(A30, 4, p); err == nil {
		t.Fatal("expected error for zero root-complex bandwidth")
	}
}

func TestFig3bCommodityAllToAllFraction(t *testing.T) {
	// Fig 3b: commodity all_to_all bandwidth is ~54% of datacenter's at
	// large transfer sizes (both on the same PCIe 4.0 link).
	dc := topo(t, A30, 4)
	com := topo(t, RTX3090, 4)
	size := int64(100 << 20)
	frac := com.AllToAllBandwidth(size) / dc.AllToAllBandwidth(size)
	if frac < 0.45 || frac > 0.65 {
		t.Fatalf("commodity/datacenter all_to_all fraction = %.2f, want ~0.54", frac)
	}
}

func TestAllToAllBandwidthRisesWithSize(t *testing.T) {
	tp := topo(t, RTX3090, 4)
	small := tp.AllToAllBandwidth(1 << 20)
	large := tp.AllToAllBandwidth(100 << 20)
	if large <= small {
		t.Fatalf("bandwidth should rise with size: 1MB=%.3f 100MB=%.3f", small, large)
	}
}

func TestAllToAllSingleGPUFree(t *testing.T) {
	tp := topo(t, RTX3090, 1)
	if d := tp.AllToAll(1 << 20); d != 0 {
		t.Fatalf("single-GPU all_to_all should cost 0, got %v", d)
	}
}

func TestFig10UVAFasterThanCPUGather(t *testing.T) {
	// Fig 10 / Exp #3: UVA-enabled access lowers host-memory query latency
	// by 3.1-3.4x vs the CPU-involved path.
	tp := topo(t, RTX3090, 4)
	const rowBytes = 128 // dim 32 x float32
	for _, batch := range []int{512, 1024, 2048} {
		cpu := tp.CPUGather(batch, rowBytes, 1)
		uva, err := tp.UVAGather(batch, rowBytes, 1)
		if err != nil {
			t.Fatal(err)
		}
		ratio := cpu / uva
		if ratio < 2.5 || ratio > 4.5 {
			t.Fatalf("batch %d: CPU/UVA latency ratio = %.2f, want ~3.1-3.4", batch, ratio)
		}
	}
}

func TestUVARequiresCapability(t *testing.T) {
	// All catalog parts support UVA-to-host; a hypothetical part without it
	// must error.
	noUVA := RTX3090
	noUVA.UVAToHost = false
	tp := MustTopology(noUVA, 2, DefaultParams())
	if _, err := tp.UVAGather(10, 128, 1); err == nil {
		t.Fatal("expected UVA capability error")
	}
}

func TestUVMOrdersOfMagnitudeSlower(t *testing.T) {
	// §4.2: UVM's 4KB page granularity vs ~512B embeddings causes huge
	// amplification; the paper reports two orders of magnitude slowdown.
	tp := topo(t, RTX3090, 4)
	const rowBytes = 128
	uva, err := tp.UVAGather(1024, rowBytes, 1)
	if err != nil {
		t.Fatal(err)
	}
	uvm := tp.UVMFetch(1024, rowBytes, 1)
	if uvm < 20*uva {
		t.Fatalf("UVM (%.6f) should be >>20x slower than UVA (%.6f)", uvm, uva)
	}
}

func TestUVMLargeRowFaultsMultiplePages(t *testing.T) {
	tp := topo(t, RTX3090, 1)
	small := tp.UVMFetch(10, 4096, 1)
	big := tp.UVMFetch(10, 8192, 1)
	if big < 1.9*small {
		t.Fatalf("8KB rows should fault ~2x the pages: small=%v big=%v", small, big)
	}
}

func TestRootComplexContention(t *testing.T) {
	// With enough concurrent flows the root complex, not the link, binds.
	tp := topo(t, RTX3090, 8)
	one := tp.DMA(64<<20, 1)
	eight := tp.DMA(64<<20, 8)
	if eight <= one {
		t.Fatalf("8-flow DMA (%v) should be slower than 1-flow (%v)", eight, one)
	}
	// Two flows still fit within per-link limits (2*27 < 78 GB/s agg).
	two := tp.DMA(64<<20, 2)
	if two != one {
		t.Fatalf("2 flows should not yet contend: one=%v two=%v", one, two)
	}
}

func TestComputeScalesWithFlops(t *testing.T) {
	tp := topo(t, RTX3090, 1)
	small := tp.Compute(1e6)
	large := tp.Compute(1e9)
	if large <= small {
		t.Fatal("more flops must take longer")
	}
	// A30 has faster FP32 than 3090: same flops should be quicker.
	dc := topo(t, A30, 1)
	if dc.Compute(1e9) >= tp.Compute(1e9) {
		t.Fatal("A30 compute should beat RTX 3090 at FP32")
	}
}

func TestCostsArePositiveAndMonotonic(t *testing.T) {
	tp := topo(t, RTX3090, 4)
	f := func(kb uint16, rows uint16) bool {
		bytes := int64(kb)*1024 + 1
		r := int(rows) + 1
		costs := []float64{
			tp.DMA(bytes, 1),
			tp.AllToAll(bytes),
			tp.CPUGather(r, 128, 1),
			tp.CacheAccess(r, 128),
			tp.UVMFetch(r, 128, 1),
			tp.Compute(float64(r) * 1000),
		}
		for _, c := range costs {
			if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
		// Monotonic in size.
		return tp.DMA(2*bytes, 1) >= tp.DMA(bytes, 1) &&
			tp.CPUGather(2*r, 128, 1) >= tp.CPUGather(r, 128, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClassString(t *testing.T) {
	if Datacenter.String() != "datacenter" || Commodity.String() != "commodity" {
		t.Fatal("class string mismatch")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class should still print")
	}
}
