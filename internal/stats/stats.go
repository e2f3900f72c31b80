// Package stats provides the measurement vocabulary of the evaluation:
// the per-iteration time breakdown of Fig 3c / Fig 12 (collective
// communication, host DRAM access, GPU cache access, other), throughput
// accounting in samples/second, and text rendering of the tables and
// series the paper reports.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Component is one bucket of the iteration-time breakdown.
type Component string

// The four breakdown buckets of §2.4.
const (
	Comm      Component = "comm"      // collective communication
	HostDRAM  Component = "host DRAM" // host-memory (cache miss) access
	CacheComp Component = "cache"     // local GPU cache access
	Other     Component = "other"     // DNN compute and everything else
)

// Components returns the buckets in presentation order.
func Components() []Component { return []Component{Comm, HostDRAM, CacheComp, Other} }

// Breakdown is a per-iteration time split in seconds.
type Breakdown struct {
	Comm     float64
	HostDRAM float64
	Cache    float64
	Other    float64
}

// Total returns the iteration time.
func (b Breakdown) Total() float64 { return b.Comm + b.HostDRAM + b.Cache + b.Other }

// Add returns the component-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Comm:     b.Comm + o.Comm,
		HostDRAM: b.HostDRAM + o.HostDRAM,
		Cache:    b.Cache + o.Cache,
		Other:    b.Other + o.Other,
	}
}

// Scale returns the breakdown with every component multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{Comm: b.Comm * f, HostDRAM: b.HostDRAM * f, Cache: b.Cache * f, Other: b.Other * f}
}

// Get returns one component's seconds.
func (b Breakdown) Get(c Component) float64 {
	switch c {
	case Comm:
		return b.Comm
	case HostDRAM:
		return b.HostDRAM
	case CacheComp:
		return b.Cache
	case Other:
		return b.Other
	default:
		panic(fmt.Sprintf("stats: unknown component %q", c))
	}
}

// Throughput converts an iteration time into samples/second.
func Throughput(samplesPerIter int, iterSeconds float64) float64 {
	if iterSeconds <= 0 {
		return 0
	}
	return float64(samplesPerIter) / iterSeconds
}

// ----------------------------------------------------------------------
// Result tables

// Series is one labelled line of a figure: y-values over the sweep points.
type Series struct {
	Label  string
	Points []float64
}

// Table renders figure data as aligned text: one column per sweep point,
// one row per series — the form EXPERIMENTS.md records.
type Table struct {
	Title  string
	XLabel string
	XTicks []string
	YLabel string
	Series []Series
	Notes  []string
}

// AddSeries appends a labelled series, validating its length.
func (t *Table) AddSeries(label string, points []float64) {
	if len(t.XTicks) != 0 && len(points) != len(t.XTicks) {
		panic(fmt.Sprintf("stats: series %q has %d points, want %d", label, len(points), len(t.XTicks)))
	}
	t.Series = append(t.Series, Series{Label: label, Points: points})
}

// Note attaches a free-form annotation rendered under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render prints the table as aligned text.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	if t.YLabel != "" {
		fmt.Fprintf(&sb, "(y: %s; x: %s)\n", t.YLabel, t.XLabel)
	}
	width := 12
	for _, s := range t.Series {
		if len(s.Label)+2 > width {
			width = len(s.Label) + 2
		}
	}
	fmt.Fprintf(&sb, "%-*s", width, "")
	for _, x := range t.XTicks {
		fmt.Fprintf(&sb, "%12s", x)
	}
	sb.WriteByte('\n')
	for _, s := range t.Series {
		fmt.Fprintf(&sb, "%-*s", width, s.Label)
		for _, p := range s.Points {
			fmt.Fprintf(&sb, "%12s", FormatValue(p))
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  · %s\n", n)
	}
	return sb.String()
}

// FormatValue renders a measurement compactly (SI suffixes for large
// values, 3 significant digits).
func FormatValue(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	case av == 0:
		return "0"
	case av >= 1e-3:
		return fmt.Sprintf("%.2fm", v*1e3)
	case av >= 1e-6:
		return fmt.Sprintf("%.1fµ", v*1e6)
	default:
		return fmt.Sprintf("%.1fn", v*1e9)
	}
}

// Ratio returns a/b, or 0 when b is 0 — for speedup reporting.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// MinMax returns the smallest and largest of a non-empty slice.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// AUC computes the area under the ROC curve of binary classification
// scores by the rank statistic (Mann-Whitney U), with midrank handling of
// ties. Labels are {0, 1}; returns 0.5 when either class is absent.
func AUC(scores []float64, labels []float64) float64 {
	if len(scores) != len(labels) || len(scores) == 0 {
		return 0.5
	}
	type pair struct{ s, l float64 }
	ps := make([]pair, len(scores))
	for i := range scores {
		ps[i] = pair{scores[i], labels[i]}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].s < ps[j].s })
	var rankSumPos, nPos, nNeg float64
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		midrank := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			if ps[k].l > 0.5 {
				rankSumPos += midrank
				nPos++
			} else {
				nNeg++
			}
		}
		i = j
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := rankSumPos - nPos*(nPos+1)/2
	return u / (nPos * nNeg)
}
