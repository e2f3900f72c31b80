package sim

import (
	"testing"

	"frugal/internal/data"
	"frugal/internal/hw"
	"frugal/internal/pq"
)

func run(t *testing.T, sys System, w Workload) Summary {
	t.Helper()
	s, err := NewSimulator(sys, w)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(6, 10)
}

func micro(batch int) Workload { return MicroWorkload(data.DistZipf09, batch) }

func TestSystemValidation(t *testing.T) {
	w := micro(256)
	if _, err := NewSimulator(System{Kind: "CUDA", NumGPUs: 4}, w); err == nil {
		t.Fatal("unknown system should error")
	}
	if _, err := NewSimulator(System{Kind: SysFrugal, NumGPUs: 0}, w); err == nil {
		t.Fatal("0 GPUs should error")
	}
	if _, err := NewSimulator(System{Kind: SysFrugal, NumGPUs: 4}, Workload{}); err == nil {
		t.Fatal("empty workload should error")
	}
	// Unified-address systems require full UVA — commodity parts refuse.
	if _, err := NewSimulator(System{Kind: SysUnified, GPU: hw.RTX3090, NumGPUs: 4}, w); err == nil {
		t.Fatal("unified system on a commodity part should error")
	}
	if _, err := NewSimulator(System{Kind: SysUnified, GPU: hw.A30, NumGPUs: 4}, w); err != nil {
		t.Fatalf("unified on A30: %v", err)
	}
}

func TestKGLabel(t *testing.T) {
	if KGLabel(SysPyTorch) != "DGL-KE" || KGLabel(SysHugeCTR) != "DGL-KE-cached" || KGLabel(SysFrugal) != "Frugal" {
		t.Fatal("KG labels wrong")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	m := MicroWorkload(data.DistZipf099, 512)
	if m.Batch != 512 || m.KeySpace != 10_000_000 || m.Dim != 32 {
		t.Fatalf("micro workload: %+v", m)
	}
	r := RECWorkload(data.Avazu, 0, 0)
	if r.Batch != data.Avazu.DefaultBatch || r.KeysPerSample != 22 || r.DNNFlopsPerSample <= 0 {
		t.Fatalf("rec workload: %+v", r)
	}
	k := KGWorkload(data.FB15k, 0, 0)
	if k.KeysPerSample != 3 || k.SharedKeys != 200 || k.Dim != 400 {
		t.Fatalf("kg workload: %+v", k)
	}
	deeper := RECWorkload(data.Avazu, 0, 6)
	if deeper.DNNFlopsPerSample <= r.DNNFlopsPerSample {
		t.Fatal("deeper DNN must cost more flops")
	}
}

// TestExp1Shape asserts the headline microbenchmark relationships at a
// representative point (zipf-0.9, 5% cache, batch 2048, 8 GPUs).
func TestExp1Shape(t *testing.T) {
	w := micro(2048)
	tput := map[SystemKind]float64{}
	for _, kind := range []SystemKind{SysPyTorch, SysHugeCTR, SysFrugalSync, SysFrugal, SysUVM} {
		tput[kind] = run(t, System{Kind: kind, NumGPUs: 8}, w).Throughput
	}
	if r := tput[SysFrugal] / tput[SysPyTorch]; r < 1.5 || r > 10.2 {
		t.Fatalf("Frugal/PyTorch = %.2f, paper band 1.5-10.2", r)
	}
	if r := tput[SysFrugal] / tput[SysHugeCTR]; r < 3.5 || r > 12 {
		t.Fatalf("Frugal/HugeCTR = %.2f, paper band 4.3-11.3", r)
	}
	if r := tput[SysFrugal] / tput[SysFrugalSync]; r < 2.5 || r > 6 {
		t.Fatalf("Frugal/Frugal-Sync = %.2f, paper band 3.3-5.1", r)
	}
	if tput[SysUVM]*20 > tput[SysFrugal] {
		t.Fatalf("UVM (%v) must be orders of magnitude below Frugal (%v)",
			tput[SysUVM], tput[SysFrugal])
	}
}

// TestExp1SmallBatchInversion: at batch 128 the cache-enabled systems lose
// to PyTorch (Fig 8 insets).
func TestExp1SmallBatchInversion(t *testing.T) {
	w := micro(128)
	pt := run(t, System{Kind: SysPyTorch, NumGPUs: 8}, w).Throughput
	// The collective-bound systems clearly lose; Frugal (no collectives)
	// is allowed rough parity at tiny batches.
	for _, kind := range []SystemKind{SysHugeCTR, SysFrugalSync} {
		if got := run(t, System{Kind: kind, NumGPUs: 8}, w).Throughput; got > pt*1.02 {
			t.Fatalf("%s (%.0f) should not beat PyTorch (%.0f) at batch 128", kind, got, pt)
		}
	}
	if got := run(t, System{Kind: SysFrugal, NumGPUs: 8}, w).Throughput; got > pt*1.35 {
		t.Fatalf("Frugal (%.0f) should be near PyTorch (%.0f) at batch 128, not far above", got, pt)
	}
}

// TestExp2StallShape: P²F stalls are 1-2 orders of magnitude below the
// write-through policy's, and both grow with batch size.
func TestExp2StallShape(t *testing.T) {
	var lastSync, lastP2F float64
	for _, b := range []int{512, 2048} {
		w := micro(b)
		sync := run(t, System{Kind: SysFrugalSync, NumGPUs: 8, CacheRatio: 0.01}, w).Iter.Stall
		p2f := run(t, System{Kind: SysFrugal, NumGPUs: 8, CacheRatio: 0.01}, w).Iter.Stall
		if p2f <= 0 || sync <= 0 {
			t.Fatalf("batch %d: zero stalls (sync=%v p2f=%v)", b, sync, p2f)
		}
		ratio := sync / p2f
		if ratio < 15 || ratio > 300 {
			t.Fatalf("batch %d: stall reduction %.0fx out of plausible band", b, ratio)
		}
		if sync < lastSync || p2f < lastP2F {
			t.Fatalf("stalls should grow with batch")
		}
		lastSync, lastP2F = sync, p2f
	}
}

// TestExp4Shape: the TreeHeap backend commits slower and stalls far more.
func TestExp4Shape(t *testing.T) {
	w := KGWorkload(data.Freebase, 0, 0)
	tree := run(t, System{Kind: SysFrugal, NumGPUs: 8, TreeHeap: true}, w)
	two := run(t, System{Kind: SysFrugal, NumGPUs: 8}, w)
	if tree.GEntryBatchTime <= two.GEntryBatchTime {
		t.Fatal("TreeHeap g-entry updates should be slower")
	}
	if tree.Iter.Stall < 10*two.Iter.Stall {
		t.Fatalf("TreeHeap stall (%v) should dwarf two-level (%v)", tree.Iter.Stall, two.Iter.Stall)
	}
	if tree.Throughput >= two.Throughput {
		t.Fatal("two-level PQ should win end-to-end")
	}
}

// TestExp8RootComplexKnee: the no-cache system stops scaling past 4 GPUs
// while Frugal keeps most of its slope.
func TestExp8RootComplexKnee(t *testing.T) {
	w := RECWorkload(data.Avazu, 0, 0)
	pt4 := run(t, System{Kind: SysPyTorch, NumGPUs: 4}, w).Throughput
	pt8 := run(t, System{Kind: SysPyTorch, NumGPUs: 8}, w).Throughput
	if pt8 > pt4*1.5 {
		t.Fatalf("PyTorch should flatten 4→8 GPUs: %v → %v", pt4, pt8)
	}
	f2 := run(t, System{Kind: SysFrugal, NumGPUs: 2}, w).Throughput
	f8 := run(t, System{Kind: SysFrugal, NumGPUs: 8}, w).Throughput
	if f8 < f2 {
		t.Fatalf("Frugal should not regress 2→8 GPUs: %v → %v", f2, f8)
	}
}

// TestExp10ThreadSensitivity: too few flushing threads hurt; the optimum
// is in the paper's 8-12 region; far too many threads hurt again.
func TestExp10ThreadSensitivity(t *testing.T) {
	w := RECWorkload(data.Avazu, 0, 0)
	at := func(threads int) float64 {
		return run(t, System{Kind: SysFrugal, NumGPUs: 8, FlushThreads: threads}, w).Throughput
	}
	t2, t8, t12, t30 := at(2), at(8), at(12), at(30)
	if t2 >= t8 {
		t.Fatalf("2 threads (%v) should underperform 8 (%v)", t2, t8)
	}
	peak := t8
	if t12 > peak {
		peak = t12
	}
	if t30 >= peak {
		t.Fatalf("30 threads (%v) should underperform the 8-12 peak (%v)", t30, peak)
	}
}

// TestFrugalDefersColdUpdates: with a skewed trace, a meaningful share of
// flushes happen at ∞ priority (the Fig 6 k₃ deferral).
func TestFrugalDefersColdUpdates(t *testing.T) {
	s, err := NewSimulator(System{Kind: SysFrugal, NumGPUs: 8}, micro(1024))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5, 10)
	// After warm-up the pending set must contain deferred entries.
	if n := s.pend.len(); n == 0 {
		t.Fatal("no deferred pending updates — the P²F deferral is not happening")
	}
	if c := s.pend.countUpTo(s.step + int64(s.sys.Lookahead)); c >= s.pend.len() {
		t.Fatal("all pending updates urgent — expected an ∞ tail")
	}
}

func TestPendingSet(t *testing.T) {
	p := newPendingSet()
	p.add(1, 5)
	p.add(2, 7)
	p.add(3, pq.Inf)
	if p.len() != 3 || !isPending(p, 1) || isPending(p, 9) {
		t.Fatal("population wrong")
	}
	if got := p.countUpTo(6); got != 1 {
		t.Fatalf("countUpTo(6) = %d", got)
	}
	// add replaces priority.
	p.add(2, 4)
	if got := p.countUpTo(6); got != 2 {
		t.Fatalf("countUpTo(6) after re-add = %d", got)
	}
	// adjust only touches pending keys.
	p.adjust(3, 6)
	p.adjust(42, 1)
	if got := p.countUpTo(6); got != 3 {
		t.Fatalf("countUpTo(6) after adjust = %d", got)
	}
	// drain removes lowest priority first.
	if got := p.drain(1); got != 1 {
		t.Fatalf("drain(1) = %d", got)
	}
	if isPending(p, 2) { // key 2 had priority 4, the minimum
		t.Fatal("drain should remove the lowest-priority entry")
	}
	if got := p.drainUpTo(5); got != 1 {
		t.Fatalf("drainUpTo(5) = %d", got)
	}
	if got := p.drain(10); got != 1 {
		t.Fatalf("final drain = %d", got)
	}
	if p.len() != 0 {
		t.Fatal("set should be empty")
	}
	if p.drain(5) != 0 || p.drainUpTo(100) != 0 {
		t.Fatal("empty drains should return 0")
	}
}

// TestDeterminism: the same configuration yields identical summaries.
func TestDeterminism(t *testing.T) {
	a := run(t, System{Kind: SysFrugal, NumGPUs: 8}, micro(512))
	b := run(t, System{Kind: SysFrugal, NumGPUs: 8}, micro(512))
	if a.Throughput != b.Throughput || a.Iter.Stall != b.Iter.Stall {
		t.Fatalf("nondeterministic simulation: %+v vs %+v", a, b)
	}
}

// isPending reports whether key has an unflushed update.
func isPending(p *pendingSet, key uint64) bool {
	_, ok := p.prioOf[key]
	return ok
}
