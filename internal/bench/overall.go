package bench

import (
	"fmt"
	"strings"

	"frugal/internal/data"
	"frugal/internal/hw"
	"frugal/internal/sim"
	"frugal/internal/stats"
)

func init() {
	register("exp6", "Knowledge graph models (Fig 13)", Exp6)
	register("exp7", "Recommendation models (Fig 14)", Exp7)
	register("exp8", "Scalability (Fig 15)", Exp8)
	register("exp9", "Cost efficiency vs datacenter GPUs (Fig 16)", Exp9)
}

// Exp6 regenerates Fig 13: KG training throughput across datasets, cache
// ratios and systems.
func Exp6(quick bool) string {
	var sb strings.Builder
	datasets := []data.Spec{data.FB15k, data.Freebase, data.WikiKG}
	var gains, cachedGains []float64
	for _, ds := range datasets {
		tb := &stats.Table{
			Title:  fmt.Sprintf("Fig 13 — KG training throughput, %s (TransE, 8x RTX 3090)", ds.Name),
			XLabel: "cache ratio", YLabel: "samples/s",
			XTicks: []string{"5%", "10%"},
		}
		w := sim.KGWorkload(ds, 0, 0)
		series := map[sim.SystemKind][]float64{}
		for _, kind := range []sim.SystemKind{sim.SysPyTorch, sim.SysHugeCTR, sim.SysFrugal} {
			for _, r := range []float64{0.05, 0.10} {
				sum := runSim(sim.System{Kind: kind, NumGPUs: 8, CacheRatio: r}, w, quick)
				series[kind] = append(series[kind], sum.Throughput)
			}
			tb.AddSeries(sim.KGLabel(kind), series[kind])
		}
		for i := range series[sim.SysFrugal] {
			gains = append(gains, stats.Ratio(series[sim.SysFrugal][i], series[sim.SysPyTorch][i]))
			cachedGains = append(cachedGains, stats.Ratio(series[sim.SysFrugal][i], series[sim.SysHugeCTR][i]))
		}
		sb.WriteString(tb.Render())
		sb.WriteByte('\n')
	}
	lo, hi := stats.MinMax(gains)
	clo, chi := stats.MinMax(cachedGains)
	fmt.Fprintf(&sb, "  · Frugal vs DGL-KE: %.1f-%.1fx (paper: 1.2-1.5x); vs DGL-KE-cached: %.1f-%.1fx (paper: 4.1-7.1x)\n",
		lo, hi, clo, chi)
	return sb.String()
}

// Exp7 regenerates Fig 14: REC training throughput across datasets, cache
// ratios and systems.
func Exp7(quick bool) string {
	var sb strings.Builder
	datasets := []data.Spec{data.Avazu, data.Criteo, data.CriteoTB}
	var vsPT, vsHC []float64
	for _, ds := range datasets {
		tb := &stats.Table{
			Title:  fmt.Sprintf("Fig 14 — REC training throughput, %s (DLRM, 8x RTX 3090)", ds.Name),
			XLabel: "cache ratio", YLabel: "samples/s",
			XTicks: []string{"5%", "10%"},
		}
		w := sim.RECWorkload(ds, 0, 0)
		series := map[sim.SystemKind][]float64{}
		for _, kind := range []sim.SystemKind{sim.SysPyTorch, sim.SysHugeCTR, sim.SysFrugal} {
			for _, r := range []float64{0.05, 0.10} {
				sum := runSim(sim.System{Kind: kind, NumGPUs: 8, CacheRatio: r}, w, quick)
				series[kind] = append(series[kind], sum.Throughput)
			}
			tb.AddSeries(string(kind), series[kind])
		}
		for i := range series[sim.SysFrugal] {
			vsPT = append(vsPT, stats.Ratio(series[sim.SysFrugal][i], series[sim.SysPyTorch][i]))
			vsHC = append(vsHC, stats.Ratio(series[sim.SysFrugal][i], series[sim.SysHugeCTR][i]))
		}
		sb.WriteString(tb.Render())
		sb.WriteByte('\n')
	}
	lo, hi := stats.MinMax(vsPT)
	clo, chi := stats.MinMax(vsHC)
	fmt.Fprintf(&sb, "  · Frugal vs PyTorch: %.1f-%.1fx (paper: 4.9-7.4x); vs HugeCTR: %.1f-%.1fx (paper: 6.1-8.7x)\n",
		lo, hi, clo, chi)
	return sb.String()
}

// Exp8 regenerates Fig 15: scalability over 2/4/6/8 GPUs for the KG
// (Freebase) and REC (Avazu) workloads.
func Exp8(quick bool) string {
	gpus := []int{2, 4, 6, 8}
	var sb strings.Builder
	for _, panel := range []struct {
		name string
		w    sim.Workload
		kg   bool
	}{
		{"KG (Freebase)", sim.KGWorkload(data.Freebase, 0, 0), true},
		{"REC (Avazu)", sim.RECWorkload(data.Avazu, 0, 0), false},
	} {
		tb := &stats.Table{
			Title:  fmt.Sprintf("Fig 15 — scalability, %s (RTX 3090)", panel.name),
			XLabel: "# of GPUs", YLabel: "samples/s",
			XTicks: ticks(gpus),
		}
		for _, kind := range []sim.SystemKind{sim.SysPyTorch, sim.SysHugeCTR, sim.SysFrugalSync, sim.SysFrugal} {
			var pts []float64
			for _, n := range gpus {
				pts = append(pts, runSim(sim.System{Kind: kind, NumGPUs: n}, panel.w, quick).Throughput)
			}
			label := string(kind)
			if panel.kg {
				label = sim.KGLabel(kind)
			}
			tb.AddSeries(label, pts)
		}
		sb.WriteString(tb.Render())
		sb.WriteByte('\n')
	}
	sb.WriteString("  · no-cache systems flatten past 4 GPUs (CPU root-complex bandwidth); Frugal keeps scaling\n")
	return sb.String()
}

// Exp9 regenerates Fig 16: Frugal on RTX 3090s vs the best existing system
// on A30s, with the cost-performance ratio.
func Exp9(quick bool) string {
	gpus := []int{2, 3, 4}
	var sb strings.Builder
	var perf, costPerf []float64
	for _, panel := range []struct {
		name string
		w    sim.Workload
	}{
		{"KG / FB15k", sim.KGWorkload(data.FB15k, 0, 0)},
		{"KG / Freebase", sim.KGWorkload(data.Freebase, 0, 0)},
		{"REC / Avazu", sim.RECWorkload(data.Avazu, 0, 0)},
		{"REC / Criteo", sim.RECWorkload(data.Criteo, 0, 0)},
	} {
		tb := &stats.Table{
			Title:  fmt.Sprintf("Fig 16 — cost efficiency, %s", panel.name),
			XLabel: "# of GPUs", YLabel: "samples/s",
			XTicks: ticks(gpus),
		}
		var dcBest, frugal []float64
		for _, n := range gpus {
			// Best existing system on datacenter GPUs — message-based
			// (PyTorch/HugeCTR) and unified-address (§5: WholeGraph-style,
			// possible only with the A30's full UVA/P2P support).
			best := 0.0
			for _, kind := range []sim.SystemKind{sim.SysPyTorch, sim.SysHugeCTR, sim.SysUnified} {
				if t := runSim(sim.System{Kind: kind, GPU: hw.A30, NumGPUs: n}, panel.w, quick).Throughput; t > best {
					best = t
				}
			}
			dcBest = append(dcBest, best)
			frugal = append(frugal, runSim(sim.System{Kind: sim.SysFrugal, GPU: hw.RTX3090, NumGPUs: n}, panel.w, quick).Throughput)
		}
		tb.AddSeries("Datacenter GPU (A30)", dcBest)
		tb.AddSeries("Commodity GPU (3090)", frugal)
		for i := range dcBest {
			rel := stats.Ratio(frugal[i], dcBest[i])
			perf = append(perf, rel)
			costPerf = append(costPerf, rel*hw.A30.PriceUSD/hw.RTX3090.PriceUSD)
		}
		sb.WriteString(tb.Render())
		sb.WriteByte('\n')
	}
	lo, hi := stats.MinMax(perf)
	clo, chi := stats.MinMax(costPerf)
	fmt.Fprintf(&sb, "  · Frugal reaches %.0f-%.0f%% of A30 throughput (paper: 89-97%%)\n", lo*100, hi*100)
	fmt.Fprintf(&sb, "  · cost-performance gain at $%.0f/A30 vs $%.0f/3090: %.1f-%.1fx (paper: 4.0-4.3x)\n",
		hw.A30.PriceUSD, hw.RTX3090.PriceUSD, clo, chi)
	return sb.String()
}
