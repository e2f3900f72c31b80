// Command frugal-serve answers embedding lookups and top-K similarity
// queries over HTTP from a checkpoint trained by frugal-train — the
// host-memory slab as a serving store (§3's freshest-copy property, put
// to work).
//
// Usage:
//
//	frugal-train -micro -steps 200 -checkpoint-out demo.ckpt
//	frugal-serve -checkpoint demo.ckpt -addr :8080
//	curl 'localhost:8080/v1/lookup?key=42&level=bounded(2)'
//	curl 'localhost:8080/v1/topk?q=0.1,0.2,0.3&k=5'
//
// With -shards the server fronts a partitioned table instead of a local
// checkpoint: it dials the listed frugal-shard nodes (in -shard index
// order), fans each top-K out per shard, and composes bounded-staleness
// reads over the cross-shard minimum watermark:
//
//	frugal-serve -shards 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
//
// With -index=ivf the server builds an inverted-file index at startup
// and answers top-K queries by scanning only the -nprobe nearest of
// -centroids partitions — sublinear in the row count; per-query
// overrides ride on the request (&index=flat, &nprobe=16).
//
// The server sheds load past -max-inflight (429 + Retry-After), bounds
// every request by -request-timeout, and drains connections for up to
// -drain on SIGINT/SIGTERM before exiting.
//
// With -loadgen it runs the load generator against the checkpoint
// instead and prints a latency report (`make serve-demo`) — closed-loop
// by default, open-loop at a fixed arrival rate with -rate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"frugal"
	"frugal/internal/shard"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		checkpoint  = flag.String("checkpoint", "", "checkpoint to serve (from frugal-train -checkpoint-out)")
		shards      = flag.String("shards", "", "comma-separated frugal-shard addresses to serve from, in -shard index order (instead of -checkpoint)")
		follow      = flag.String("follow", "", "delta-checkpoint log directory to tail as a serve replica (from frugal-train -stream-log; instead of -checkpoint)")
		promote     = flag.Duration("promote-after", 0, "self-promote once the log stops growing for this long (0 = never; requires -follow)")
		waitForLog  = flag.Duration("wait-for-log", 0, "keep retrying this long when the log directory has no base yet (requires -follow)")
		level       = flag.String("level", "stale", "default consistency level: stale, bounded(k), fresh")
		maxInflight = flag.Int("max-inflight", 256, "admission-control capacity in lookup units (0 = unlimited)")
		reqTimeout  = flag.Duration("request-timeout", 2*time.Second, "per-request deadline (0 = none)")
		drain       = flag.Duration("drain", 5*time.Second, "connection-drain budget on shutdown")
		loadGen     = flag.Duration("loadgen", 0, "run the load generator for this long and exit (0 = serve HTTP)")
		rate        = flag.Float64("rate", 0, "load-generator open-loop arrival rate, queries/s (0 = closed loop)")
		seed        = flag.Int64("seed", 1, "load-generator random seed")
		jsonOut     = flag.Bool("json", false, "emit the load-generator report as JSON")
		index       = flag.String("index", "flat", "top-K scan strategy: flat (exhaustive) or ivf (sublinear inverted file)")
		centroids   = flag.Int("centroids", 0, "IVF partition count (0 = default, about 4 times the square root of the row count)")
		nprobe      = flag.Int("nprobe", 0, "IVF partitions scanned per query (0 = default 8)")
		coldTier    = flag.Bool("cold-tier", false,
			"serve the checkpoint from a tiered slab: hot f32 head + quantized int8 cold tail (requires -checkpoint)")
		hotFraction = flag.Float64("hot-fraction", 0,
			"tiered hot-head size as a fraction of the table, in (0, 1] (default 0.1; requires -cold-tier)")
	)
	flag.Parse()

	lvl, kind, err := validate(options{
		Addr: *addr, Checkpoint: *checkpoint, Shards: *shards,
		Follow: *follow, PromoteAfter: *promote, WaitForLog: *waitForLog,
		Level: *level, Drain: *drain, LoadGen: *loadGen, Rate: *rate,
		Index: *index, ColdTier: *coldTier,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "frugal-serve:", err)
		flag.Usage()
		return 2
	}

	opt := frugal.ServeOptions{
		Level: lvl, MaxInflight: *maxInflight, RequestTimeout: *reqTimeout,
		Index: kind, Centroids: *centroids, NProbe: *nprobe,
		ColdTier: *coldTier, HotFraction: *hotFraction,
	}
	var srv *frugal.Server
	var fsrv *frugal.FollowerServer
	role := "static"
	switch {
	case *shards != "":
		role = "sharded"
		srv, err = frugal.NewServerFromShards(shard.SplitAddrs(*shards), opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
	case *follow != "":
		fsrv, err = frugal.NewServerFromLog(*follow, opt, frugal.FollowOptions{
			WaitForLog: *waitForLog, PromoteAfter: *promote,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		srv = fsrv.Server
		role = fsrv.Role()
		// Tail the log for the whole process lifetime, whichever mode runs.
		tailCtx, stopTail := context.WithCancel(context.Background())
		defer stopTail()
		go func() {
			if err := fsrv.Run(tailCtx); err != nil && tailCtx.Err() == nil {
				fmt.Fprintln(os.Stderr, "frugal-serve: log tail:", err)
			}
		}()
	default:
		f, err := os.Open(*checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		srv, err = frugal.NewServerFromCheckpoint(f, opt)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	// The resolved level and role are load-bearing operational facts —
	// log them up front in every mode.
	fmt.Printf("frugal-serve: level=%s role=%s rows=%d dim=%d\n", lvl, role, srv.Rows(), srv.Dim())

	if *loadGen > 0 {
		rep, err := srv.RunLoadGen(frugal.LoadGenOptions{
			Duration: *loadGen, Level: lvl, Seed: *seed, ArrivalRate: *rate,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			return 0
		}
		report(rep)
		return 0
	}

	hs, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("serving %d rows × dim %d at %s (level %s, index %s, max-inflight %d)\n",
		srv.Rows(), srv.Dim(), hs.Addr(), lvl, srv.Index(), *maxInflight)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve() }()
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Printf("shutting down, draining connections (up to %v)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain incomplete:", err)
		return 1
	}
	return 0
}

func report(rep frugal.LoadGenReport) {
	fmt.Printf("mode:             %s\n", rep.Mode)
	fmt.Printf("level:            %s\n", rep.Level)
	fmt.Printf("workers:          %d\n", rep.Workers)
	fmt.Printf("elapsed:          %v\n", rep.Elapsed)
	fmt.Printf("throughput:       %.0f queries/s\n", rep.QPS)
	fmt.Printf("lookups:          %d (mean %v, p99 %v)\n",
		rep.Lookups, rep.LookupLatency.Mean(), rep.LookupLatency.Quantile(0.99))
	fmt.Printf("topk queries:     %d (mean %v, p99 %v)\n",
		rep.TopKs, rep.TopKLatency.Mean(), rep.TopKLatency.Quantile(0.99))
	if rep.Mode == "open" {
		fmt.Printf("offered:          %d (dropped %d at the client queue)\n", rep.Offered, rep.Dropped)
	}
	if rep.Shed > 0 {
		fmt.Printf("shed:             %d (admission control)\n", rep.Shed)
	}
	if rep.Rejected > 0 {
		fmt.Printf("rejected:         %d (staleness bound)\n", rep.Rejected)
	}
	if rep.Errors > 0 {
		fmt.Printf("errors:           %d\n", rep.Errors)
	}
	if rep.Aborted {
		fmt.Printf("aborted:          run stopped on persistent errors: %s\n", rep.FirstError)
	}
}
