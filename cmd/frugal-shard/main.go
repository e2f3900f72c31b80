// Command frugal-shard runs one shard of a partitioned embedding table —
// a compact host-memory slab holding the rows its consistent-hash slot
// owns, fronted by this shard's own P²F flusher pool and committed-step
// watermark, exported over the length-prefixed binary wire protocol.
//
// Start one process per shard with matching -rows/-dim/-of and distinct
// -shard indices, then point a query tier at all of them:
//
//	frugal-shard -addr 127.0.0.1:7101 -rows 10000 -dim 32 -shard 0 -of 3 &
//	frugal-shard -addr 127.0.0.1:7102 -rows 10000 -dim 32 -shard 1 -of 3 &
//	frugal-shard -addr 127.0.0.1:7103 -rows 10000 -dim 32 -shard 2 -of 3 &
//	frugal-serve -shards 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103
//
// With -connect the binary is a driver instead of a node: it dials the
// listed shards, composes them behind the sharded store, and runs the
// synchronous gather→compute→scatter training loop against the composed
// table (`make shard-demo` wires both halves together). Scatters reach
// every shard each step — an empty scatter is the commit signal that
// keeps the cross-shard minimum watermark advancing — so bounded-
// staleness reads stay meaningful while training runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"frugal/internal/shard"
	"frugal/internal/store"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:7101", "shard listen address (node mode)")
		rows     = flag.Int64("rows", 0, "GLOBAL table height (required in node mode)")
		dim      = flag.Int("dim", 0, "embedding dimension (required in node mode)")
		shardIdx = flag.Int("shard", 0, "this node's shard index in [0, -of)")
		of       = flag.Int("of", 1, "total shard count")
		flushers = flag.Int("flushers", 4, "P²F flusher-pool size")
		trainers = flag.Int("trainers", 1, "trainer clients per step (the watermark advances when all have committed)")
		uncoord  = flag.Bool("uncoordinated", false, "skip the P²F gate: write-through scatters, no watermark (required for training slabs)")
		seed     = flag.Int64("seed", 1, "row-initialisation seed (keyed per global row, identical across shards)")
		connect  = flag.String("connect", "", "driver mode: comma-separated shard addresses to train against")
		steps    = flag.Int64("steps", 200, "driver mode: training steps")
		batch    = flag.Int("batch", 0, "driver mode: keys per step (0 = full table sweep)")
		lr       = flag.Float64("lr", 0.05, "driver mode: learning rate")
	)
	flag.Parse()

	o := options{
		Addr: *addr, Rows: *rows, Dim: *dim, Shard: *shardIdx, Of: *of,
		Flushers: *flushers, Trainers: *trainers,
		Connect: *connect, Steps: *steps, Batch: *batch, LR: *lr,
	}
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "frugal-shard:", err)
		flag.Usage()
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *connect != "" {
		return runDriver(ctx, shard.SplitAddrs(*connect), *steps, *batch, float32(*lr), uint64(*seed))
	}
	return runNode(ctx, o, *uncoord, *seed)
}

// runNode builds the shard node and serves it until a signal arrives.
func runNode(ctx context.Context, o options, uncoordinated bool, seed int64) int {
	node, err := shard.NewNode(shard.NodeOptions{
		Rows: o.Rows, Dim: o.Dim, Shard: o.Shard, Of: o.Of,
		Flushers: o.Flushers, Trainers: o.Trainers,
		Uncoordinated: uncoordinated,
		Init:          rowInit(seed, o.Dim),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer node.Close()
	srv, err := shard.NewServer(o.Addr, node)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer srv.Close()
	mode := "coordinated"
	if uncoordinated {
		mode = "uncoordinated"
	}
	fmt.Printf("shard %d/%d at %s: %d of %d rows × dim %d (%s, %d flushers, %d trainers)\n",
		o.Shard, o.Of, srv.Addr(), node.KeyMap().Owned(), o.Rows, o.Dim, mode, o.Flushers, o.Trainers)
	<-ctx.Done()
	fmt.Println("shutting down")
	return 0
}

// reportEvery is the driver's progress-report interval.
const reportEvery = time.Second

// runDriver dials the shards and runs the store-level training loop.
func runDriver(ctx context.Context, addrs []string, steps int64, batch int, lr float32, seed uint64) int {
	st, err := shard.DialSharded(addrs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer st.Close()

	fmt.Printf("training %d rows × dim %d across %d shards: %d steps, batch %d, lr %g\n",
		st.Rows(), st.Dim(), st.NumShards(), steps, batch, lr)
	start := time.Now()
	last := start
	err = store.RunTrainer(ctx, st, store.TrainerConfig{
		Steps: steps, BatchSize: batch, LR: lr, Seed: seed,
		OnStep: func(step int64) {
			if time.Since(last) < reportEvery {
				return
			}
			last = time.Now()
			fmt.Printf("  step %d/%d, watermark %d, %.0f steps/s\n",
				step+1, steps, st.Watermark(), float64(step+1)/time.Since(start).Seconds())
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	elapsed := time.Since(start)
	fmt.Printf("done: %d steps in %v (%.0f steps/s), final watermark %d\n",
		steps, elapsed.Round(time.Millisecond), float64(steps)/elapsed.Seconds(), st.Watermark())
	return 0
}

// rowInit returns the deterministic per-global-key initialiser: the
// standard 1/√dim uniform bound, drawn from a splitmix stream keyed on
// (seed, key) so every shard of one table — whatever its -of — fills its
// owned rows with identical values.
func rowInit(seed int64, dim int) func(key uint64, row []float32) {
	bound := float32(1 / math.Sqrt(float64(dim)))
	return func(key uint64, row []float32) {
		h := uint64(seed)*0x9e3779b97f4a7c15 + key*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
		for j := range row {
			h ^= h >> 30
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
			h *= 0x94d049bb133111eb
			h ^= h >> 31
			// Map to [-bound, bound).
			row[j] = bound * float32(int64(h%(1<<20))-(1<<19)) / (1 << 19)
		}
	}
}
