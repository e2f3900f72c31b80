// Command frugal-train runs the real concurrent training runtime on a
// synthetic stand-in for one of the paper's datasets and reports loss,
// throughput, stall time and cache statistics.
//
// Usage:
//
//	frugal-train -dataset Avazu -engine frugal -gpus 4 -steps 200
//	frugal-train -dataset FB15k -model ComplEx -gpus 2
//	frugal-train -micro -batch 512
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"frugal"
	"frugal/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		dataset  = flag.String("dataset", "Avazu", "Table 2 dataset name")
		engine   = flag.String("engine", "frugal", "engine: frugal, frugal-sync, direct")
		gpus     = flag.Int("gpus", 4, "number of simulated GPUs")
		steps    = flag.Int64("steps", 200, "training steps")
		batch    = flag.Int("batch", 0, "global batch size (0 = dataset default)")
		threads  = flag.Int("flush-threads", 8, "P2F flushing threads")
		prefetch = flag.Bool("prefetch", false,
			"overlap cache fills with compute: prefetch upcoming batches' rows and window-pin them (cached engines only)")
		prefetchDepth = flag.Int("prefetch-depth", 0,
			"max future batches prefetched but not yet trained (0 = lookahead depth; requires -prefetch)")
		kgModel   = flag.String("model", "TransE", "KG scoring model (KG datasets only)")
		micro     = flag.Bool("micro", false, "run the embedding-only microbenchmark instead of a dataset")
		replay    = flag.String("replay", "", "replay a recorded key trace file (see frugal-datagen -trace)")
		streaming = flag.Bool("stream", false,
			"continuous online training from a rate-paced event stream (uses -keys/-batch; -steps caps the horizon)")
		streamRate = flag.Float64("stream-rate", 0, "stream event arrivals per second (0 = unpaced; requires -stream)")
		streamLog  = flag.String("stream-log", "",
			"cut a delta-checkpoint log into this empty directory while training (requires -stream; serve it with frugal-serve -follow)")
		duration = flag.Duration("duration", 0,
			"stop the stream gracefully after this long (0 = run to the horizon; requires -stream)")
		keySpace  = flag.Uint64("keys", 100_000, "microbenchmark key-space size")
		seed      = flag.Int64("seed", 1, "random seed")
		check     = flag.Bool("check", true, "verify the synchronous-consistency invariant every step")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of text")
		obsOn     = flag.Bool("obs", false, "enable the observability layer (metric counters + step tracing)")
		traceOut  = flag.String("trace-out", "", "write the step-event trace as JSONL to this file after the run (implies -obs)")
		metrics   = flag.String("metrics-addr", "", "serve live metrics at /debug/vars on this address, e.g. :6060 (implies -obs)")
		faultPlan = flag.String("fault-plan", "",
			"deterministic fault schedule, e.g. 'crash:flusher=0@batch=3;delay:gpu=1@step=5,dur=2ms' (empty injects nothing)")
		gateTimeout = flag.Duration("gate-timeout", 0,
			"degrade the frugal engine to write-through after this long with zero flush progress (0 = 5s default, negative disables the watchdog)")
		maxRespawns = flag.Int("max-respawns", 0,
			"flusher respawn budget (0 = 16 default, negative disables self-healing so a dead pool degrades)")
		coldTier = flag.Bool("cold-tier", false,
			"allocate the embedding table as a frequency-aware tiered slab: hot f32 head + quantized int8 cold tail")
		hotFraction = flag.Float64("hot-fraction", 0,
			"hot-head size as a fraction of the table, in (0, 1] (default 0.1; requires -cold-tier)")
		ckptOut    = flag.String("checkpoint-out", "", "save the trained host slab as a checkpoint to this file after the run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (post-run, after GC) to this file")
	)
	flag.Parse()

	plan, err := validate(options{
		Engine: *engine, GPUs: *gpus, Steps: *steps, Micro: *micro,
		Replay: *replay, Stream: *streaming, StreamRate: *streamRate,
		StreamLog: *streamLog, Duration: *duration,
		FaultPlan: *faultPlan, GateTimeout: *gateTimeout, MaxRespawns: *maxRespawns,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "frugal-train:", err)
		flag.Usage()
		return 2
	}

	defer writeMemProfile(*memprofile)

	if *traceOut != "" || *metrics != "" {
		*obsOn = true
	}
	cfg := frugal.Config{
		Engine:           frugal.Engine(*engine),
		NumGPUs:          *gpus,
		FlushThreads:     *threads,
		CheckConsistency: *check,
		Prefetch:         *prefetch,
		PrefetchDepth:    *prefetchDepth,
		Seed:             *seed,
		Observability:    frugal.ObsOptions{Enabled: *obsOn},
		ColdTier:         *coldTier,
		HotFraction:      *hotFraction,
		FaultPlan:        plan,
		Recovery:         frugal.Recovery{MaxRespawns: *maxRespawns, GateTimeout: *gateTimeout},
	}

	if *streaming {
		// -steps caps the stream horizon only when given explicitly; the
		// default streaming horizon is the P²F queue's sizing bound.
		horizon := int64(0)
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "steps" {
				horizon = *steps
			}
		})
		opt := frugal.StreamOptions{
			Rate: *streamRate, Batch: *batch, KeySpace: *keySpace,
			Horizon: horizon, LogDir: *streamLog,
		}
		sj, err := frugal.NewStreamJob(cfg, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer stop()
		return runStream(sj, opt, *gpus, *duration, *metrics, *jsonOut, *obsOn)
	}

	job, name, err := buildJob(cfg, *micro, *replay, *dataset, *kgModel, *keySpace, *batch, *steps)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	stop, err := startCPUProfile(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer stop()
	if *metrics != "" {
		// GET /debug/vars on this address returns the live Snapshot under
		// the "frugal" key while the job trains.
		obs.ServeMetrics(*metrics, "frugal", func() any { return job.Snapshot() })
	}
	if !*jsonOut {
		fmt.Printf("training %s with engine=%s gpus=%d steps=%d\n", name, *engine, *gpus, *steps)
	}
	res, err := job.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *traceOut != "" {
		if err := dumpTrace(job, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *ckptOut != "" {
		if err := saveCheckpoint(job, *ckptOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *jsonOut {
		if err := reportJSON(name, *engine, res, job, *obsOn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	report(res)
	if *obsOn {
		reportObs(job.Snapshot())
	}
	return 0
}

// runStream is the -stream mode: continuous online training until
// -duration elapses, the horizon runs out, or the process is
// interrupted — all three end the stream gracefully (the epilogue
// drains, the delta log seals its final segment).
func runStream(sj *frugal.StreamJob, opt frugal.StreamOptions, gpus int, dur time.Duration,
	metricsAddr string, jsonOut, obsOn bool) int {

	if metricsAddr != "" {
		obs.ServeMetrics(metricsAddr, "frugal", func() any { return sj.Snapshot() })
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if dur > 0 {
		ctx, cancel = context.WithTimeout(ctx, dur)
		defer cancel()
	}
	if !jsonOut {
		w := frugal.Streaming{Options: opt}
		fmt.Printf("streaming %s with engine=frugal gpus=%d", w.Name(), gpus)
		if opt.LogDir != "" {
			fmt.Printf(" log=%s", opt.LogDir)
		}
		fmt.Println()
	}
	res, err := sj.Run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if jsonOut {
		out := map[string]any{
			"workload":      "streaming",
			"steps":         res.Steps,
			"events":        sj.Emitted(),
			"backlog":       sj.Backlog(),
			"wallSeconds":   res.WallTime.Seconds(),
			"samplesPerSec": res.SamplesPerSec,
			"stallSeconds":  res.StallTime.Seconds(),
		}
		if opt.LogDir != "" {
			out["deltaLog"] = sj.LogStats()
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	report(res)
	fmt.Printf("stream:           %d events consumed, backlog %d\n", sj.Emitted(), sj.Backlog())
	if opt.LogDir != "" {
		ls := sj.LogStats()
		fmt.Printf("delta log:        %d segments (%d records), %d compactions, base seq %d\n",
			ls.Segments, ls.Records, ls.Compactions, ls.BaseSeq)
	}
	if obsOn {
		reportObs(sj.Snapshot())
	}
	return 0
}

// startCPUProfile starts a CPU profile into path ("" profiles nothing) and
// returns the function that stops it. It runs once the job is built, so a
// flag the library rejects writes no file.
func startCPUProfile(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() { pprof.StopCPUProfile(); f.Close() }, nil
}

// writeMemProfile dumps the post-run live heap (after a GC pass) to path.
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

// saveCheckpoint writes the trained parameters to path.
func saveCheckpoint(job *frugal.TrainingJob, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := job.SaveCheckpoint(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpTrace writes the job's step-event trace to path.
func dumpTrace(job *frugal.TrainingJob, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := job.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportJSON emits a machine-readable run summary.
func reportJSON(name, engine string, res frugal.Result, job *frugal.TrainingJob, obsOn bool) error {
	out := map[string]any{
		"workload":        name,
		"engine":          engine,
		"steps":           res.Steps,
		"firstLoss":       res.Losses[0],
		"lastLoss":        res.Losses[len(res.Losses)-1],
		"wallSeconds":     res.WallTime.Seconds(),
		"samplesPerSec":   res.SamplesPerSec,
		"stallSeconds":    res.StallTime.Seconds(),
		"flushedUpdates":  res.Flushed,
		"deferredEntries": res.Deferred,
		"cacheHitRatio":   res.CacheStats.HitRatio(),
		"trainAUC":        res.TrainAUC,
	}
	if cs := res.CacheStats; cs.PrefetchFills > 0 {
		out["prefetch"] = map[string]any{
			"fills":            cs.PrefetchFills,
			"hitRate":          cs.PrefetchHitRate(),
			"accuracy":         cs.PrefetchAccuracy(),
			"late":             cs.PrefetchLate,
			"wasted":           cs.PrefetchWasted,
			"windowPinRejects": cs.WindowPinRejects,
		}
	}
	if rs := res.Recovery; rs.FaultsInjected > 0 || rs.Degraded {
		out["recovery"] = rs
	}
	if obsOn {
		out["metrics"] = job.Snapshot()
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// buildJob resolves the flag set to a Workload and builds it through
// frugal.New — the single construction entry point.
func buildJob(cfg frugal.Config, micro bool, replay, dataset, kgModel string,
	keySpace uint64, batch int, steps int64) (*frugal.TrainingJob, string, error) {

	if replay != "" {
		f, err := os.Open(replay)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		w := frugal.Replay{Source: f, Options: frugal.ReplayOptions{Steps: steps}}
		job, err := frugal.New(cfg, w)
		return job, "replay of " + replay, err
	}
	var w frugal.Workload
	switch {
	case micro:
		w = frugal.Microbenchmark{Options: frugal.MicroOptions{
			KeySpace: keySpace, Batch: batch, Steps: steps,
		}}
	default:
		ds, err := frugal.DatasetByName(dataset)
		if err != nil {
			return nil, "", err
		}
		if ds.Kind == "KG" {
			w = frugal.KnowledgeGraph{Dataset: ds, Options: frugal.KGOptions{
				Model: kgModel, Batch: batch, Steps: steps,
			}}
		} else {
			w = frugal.Recommendation{Dataset: ds, Options: frugal.RECOptions{
				Batch: batch, Steps: steps,
			}}
		}
	}
	job, err := frugal.New(cfg, w)
	return job, w.Name(), err
}

func report(res frugal.Result) {
	first, last := res.Losses[0], res.Losses[len(res.Losses)-1]
	fmt.Printf("steps:            %d\n", res.Steps)
	fmt.Printf("loss:             %.4f → %.4f\n", first, last)
	fmt.Printf("wall time:        %v\n", res.WallTime)
	fmt.Printf("throughput:       %.0f samples/s\n", res.SamplesPerSec)
	fmt.Printf("gate stall:       %v\n", res.StallTime)
	fmt.Printf("flushed updates:  %d (%d deferred g-entries)\n", res.Flushed, res.Deferred)
	cs := res.CacheStats
	fmt.Printf("cache:            %.1f%% hit (%d hits, %d misses, %d stale, %d evictions)\n",
		100*cs.HitRatio(), cs.Hits, cs.Misses, cs.StaleHits, cs.Evicted)
	if cs.PrefetchFills > 0 {
		fmt.Printf("prefetch:         %d fills, %.1f%% of lookups served prefetched (%d late, %d wasted, %d window-pin rejects)\n",
			cs.PrefetchFills, 100*cs.PrefetchHitRate(), cs.PrefetchLate, cs.PrefetchWasted, cs.WindowPinRejects)
	}
	if rs := res.Recovery; rs.FaultsInjected > 0 || rs.Degraded {
		fmt.Printf("faults:           %d injected (%d crashes, %d stalls detected, %d host-write retries)\n",
			rs.FaultsInjected, rs.FlusherCrashes, rs.StallsDetected, rs.HostWriteRetries)
		fmt.Printf("recovery:         %d respawns, %d entries redistributed\n",
			rs.FlusherRespawns, rs.Redistributed)
		if rs.Degraded {
			fmt.Printf("degraded:         write-through from step %d (gate watchdog)\n", rs.DegradedStep)
		}
	}
}

// reportObs prints the observability-layer breakdown after a -obs run.
func reportObs(s frugal.Snapshot) {
	fmt.Println("-- observability --")
	fmt.Printf("gate:             %d passes, %d blocked (stall mean %v)\n",
		s.GatePasses, s.GateBlocks, s.GateStall.Mean())
	fmt.Printf("flush:            %d updates in %d g-entries (%d deferred, latency mean %v)\n",
		s.FlushApplied, s.FlushedEntries, s.DeferredEntries, s.FlushLatency.Mean())
	fmt.Printf("pq ops:           %d enqueue, %d dequeue, %d adjust, %d stale-pop, %d rescan\n",
		s.PQEnqueues, s.PQDequeues, s.PQAdjusts, s.PQStalePops, s.PQRescans)
	fmt.Printf("step wall mean:   %v over %d steps\n", s.StepWall.Mean(), s.StepsCompleted)
	if s.TierPromotions+s.TierDemotions+s.TierColdWrites > 0 {
		fmt.Printf("tier:             %d promotions, %d demotions (%d declined), %d cold writes, %d dequant reads\n",
			s.TierPromotions, s.TierDemotions, s.TierDeclined, s.TierColdWrites, s.TierDequantReads)
	}
	fmt.Printf("trace:            %d events (%d overwritten)\n", s.TraceEvents, s.TraceDropped)
}
