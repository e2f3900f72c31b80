// Command frugal-bench regenerates the paper's evaluation: every table
// and figure, rendered as text tables with the paper's expected bands
// annotated. It also maintains the repo's perf baseline (-perf).
//
// Usage:
//
//	frugal-bench                 # run everything at full sweep resolution
//	frugal-bench -quick          # faster, coarser sweeps
//	frugal-bench -exp exp1       # one experiment
//	frugal-bench -list           # list experiment ids
//
//	frugal-bench -perf -perf-out BENCH_baseline.json
//	    # run the wall-clock benchmark suite (kernels, step loop, PQ) and
//	    # write the JSON baseline
//	frugal-bench -perf -quick -perf-against BENCH_baseline.json
//	    # re-run and diff: exits 1 on an allocs/op regression (ns/op is
//	    # advisory — CI machines vary)
//
// -cpuprofile/-memprofile write pprof profiles of whatever mode ran.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"

	"frugal"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		exp         = flag.String("exp", "all", "experiment id (table1, table2, fig3a-c, exp1-11, or 'all')")
		quick       = flag.Bool("quick", false, "coarser sweeps and fewer simulated steps; with -perf, shorter measurement windows")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		perf        = flag.Bool("perf", false, "run the perf-baseline benchmark suite instead of the paper experiments")
		perfOut     = flag.String("perf-out", "", "write the perf report JSON to this file (default stdout)")
		perfAgainst = flag.String("perf-against", "", "compare the perf run against this baseline JSON; exit 1 on allocs/op regression")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	switch {
	case *list:
		for _, e := range frugal.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
	case *perf:
		return runPerf(*quick, *perfOut, *perfAgainst)
	case *exp == "all":
		frugal.RunAllExperiments(os.Stdout, *quick)
	default:
		if err := frugal.RunExperiment(os.Stdout, *exp, *quick); err != nil {
			return fail(err)
		}
	}
	return 0
}

func runPerf(quick bool, out, against string) int {
	rep := frugal.RunPerfSuite(quick)
	rep.GitSHA = gitSHA()

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := frugal.WritePerfReport(w, rep); err != nil {
		return fail(err)
	}

	if against == "" {
		return 0
	}
	bf, err := os.Open(against)
	if err != nil {
		return fail(err)
	}
	baseline, err := frugal.ReadPerfReport(bf)
	bf.Close()
	if err != nil {
		return fail(fmt.Errorf("parsing %s: %w", against, err))
	}
	failures, notes := frugal.ComparePerfReports(rep, baseline)
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "PERF REGRESSION vs", against)
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  FAIL:", f)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "perf: no allocs/op regressions vs %s (%d benchmarks)\n",
		against, len(rep.Benchmarks))
	return 0
}

// gitSHA best-effort resolves the working tree's commit for the report,
// suffixed "-dirty" when the tree holds uncommitted changes — the numbers
// then measure code no commit names.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	sha := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(strings.TrimSpace(string(st))) > 0 {
		sha += "-dirty"
	}
	return sha
}

func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC() // materialise the steady-state live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}
