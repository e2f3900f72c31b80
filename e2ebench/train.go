package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"frugal"
	"frugal/internal/data"
	"frugal/internal/shard"
)

// The job shape every segment shares, sized for a 2-CPU host: two
// trainers, two flushers, at most two query executors.
const (
	dim          = 32
	numGPUs      = 2
	flushThreads = 2
	cacheRatio   = 0.05
	hotFraction  = 0.02
	trainBatch   = 256
	// trainShare of --seconds is the training segment's expected length;
	// the live segment gets the rest.
	trainShare = 0.3
)

// trainSpec shapes a workload's training segment.
type trainSpec struct {
	dist     data.Distribution
	rows     int64
	coldTier bool
	prefetch bool
	wire     bool // train through DialShardSlab against two shard nodes
	// rate is the expected samples/s on a 2-CPU host. It fixes the step
	// count from --seconds, so the loss after those steps depends only on
	// the seed.
	rate float64
}

// minTrainSteps leaves more than 1000 step intervals after warm-up, so
// runtime.step_ms_p99 has 10 samples beyond it even on the slow wire.
const minTrainSteps = 1200

func (s trainSpec) steps(seconds int) int64 {
	return max(int64(math.Round(float64(seconds)*trainShare*s.rate/trainBatch)), minTrainSteps)
}

// genTrace writes a replay trace (one batch of space-separated keys per
// line) of steps batches drawn from dist over rows keys.
func genTrace(dist data.Distribution, rows int64, steps int64, seed int64) ([]byte, error) {
	gen, err := data.NewGen(dist, seed, uint64(rows))
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, steps*trainBatch*8)
	for s := int64(0); s < steps; s++ {
		for i := 0; i < trainBatch; i++ {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendUint(buf, gen.Next(), 10)
		}
		buf = append(buf, '\n')
	}
	return buf, nil
}

// stepClock records, per global step, when OnStep reported it committed
// and the flush backlog at that moment. Steps are numbered from 0. At the
// two marked steps it also reads the process CPU time, which brackets the
// throughput window.
type stepClock struct {
	at      []atomic.Int64 // unix ns; 0 = not yet committed
	backlog []atomic.Int64
	last    atomic.Int64
	mark    [2]int64
	markCPU [2]atomic.Int64 // ns
}

func newStepClock(steps, markFrom, markTo int64) *stepClock {
	c := &stepClock{at: make([]atomic.Int64, steps+1), backlog: make([]atomic.Int64, steps+1),
		mark: [2]int64{markFrom, markTo}}
	c.last.Store(-1)
	return c
}

func (c *stepClock) onStep(st frugal.StepStats) {
	if st.Step < 0 || st.Step >= int64(len(c.at)) {
		return
	}
	c.at[st.Step].Store(time.Now().UnixNano())
	c.backlog[st.Step].Store(int64(st.FlushBacklog))
	for i, m := range c.mark {
		if st.Step == m {
			c.markCPU[i].Store(int64(readProcUsage().cpu()))
		}
	}
	for {
		last := c.last.Load()
		if st.Step <= last || c.last.CompareAndSwap(last, st.Step) {
			return
		}
	}
}

// rowInit is the shard nodes' deterministic initialiser, addressed by
// global key so both shards of one table agree: values in ±1/√dim.
func rowInit(seed int64) func(key uint64, row []float32) {
	bound := float32(1 / math.Sqrt(dim))
	return func(key uint64, row []float32) {
		h := uint64(seed)*0x9e3779b97f4a7c15 + key*0xbf58476d1ce4e5b9
		for j := range row {
			h ^= h >> 31
			h *= 0x94d049bb133111eb
			h ^= h >> 29
			row[j] = bound * float32(int64(h%(1<<20))-(1<<19)) / (1 << 19)
		}
	}
}

// trainEnv is a built, not yet run, training segment.
type trainEnv struct {
	steps int64
	job   *frugal.TrainingJob
	clock *stepClock
	slab  *frugal.ShardSlab
	nodes []*shard.Server
	timed *timedStore // traced wire runs only
	tr    *tracer
}

func setupTrain(spec trainSpec, seed int64, seconds int, tr *tracer) (*trainEnv, error) {
	env := &trainEnv{steps: spec.steps(seconds), tr: tr}
	env.clock = newStepClock(env.steps, env.steps/10, env.steps-1)
	text, err := genTrace(spec.dist, spec.rows, env.steps, seed)
	if err != nil {
		return nil, err
	}
	cfg := frugal.Config{
		Engine:        frugal.EngineFrugal,
		NumGPUs:       numGPUs,
		CacheRatio:    cacheRatio,
		FlushThreads:  flushThreads,
		Prefetch:      spec.prefetch,
		Seed:          seed,
		OnStep:        env.clock.onStep,
		Observability: frugal.ObsOptions{Enabled: tr != nil},
	}
	if spec.coldTier {
		cfg.ColdTier, cfg.HotFraction = true, hotFraction
	}
	if spec.wire {
		addrs := make([]string, 2)
		for i := range addrs {
			node, err := shard.NewNode(shard.NodeOptions{
				Rows: spec.rows, Dim: dim, Shard: i, Of: len(addrs),
				Uncoordinated: true, Init: rowInit(seed),
			})
			if err != nil {
				env.close()
				return nil, err
			}
			srv, err := shard.NewServer("127.0.0.1:0", node)
			if err != nil {
				env.close()
				return nil, err
			}
			env.nodes = append(env.nodes, srv)
			addrs[i] = srv.Addr()
		}
		dialStart := time.Now()
		slab, err := frugal.DialShardSlab(addrs)
		if err != nil {
			env.close()
			return nil, err
		}
		tr.record(0, 0, 0, "DialShardSlab", dialStart, time.Now())
		env.slab = slab
		cfg.Slab = slab
		if tr != nil {
			env.timed = &timedStore{RowStore: slab}
			cfg.Slab = env.timed
		}
	}
	newStart := time.Now()
	job, err := frugal.New(cfg, frugal.Replay{
		Source:  bytes.NewReader(text),
		Options: frugal.ReplayOptions{Dim: dim, Rows: spec.rows, Steps: env.steps},
	})
	if err != nil {
		env.close()
		return nil, err
	}
	tr.record(0, 0, 0, "frugal.New", newStart, time.Now())
	env.job = job
	return env, nil
}

func (e *trainEnv) close() {
	if e.slab != nil {
		e.slab.Close()
	}
	for _, n := range e.nodes {
		n.Close()
	}
	e.slab, e.nodes, e.job = nil, nil, nil
}

// trainOut is what one training segment measured.
type trainOut struct {
	samplesPerS  float64
	cpuPerSample time.Duration // process CPU per sample over the window
	lossFinal    float64
	steps        int64
	stepMs       []float64 // commit-to-commit intervals after warm-up
	backlog      []float64 // flush backlog at each commit after warm-up
	wall         time.Duration
	noise        noise
	snap         frugal.Snapshot
}

func runTrain(e *trainEnv) (trainOut, error) {
	var out trainOut
	probe := startNoise()
	start := time.Now()
	res, err := e.job.Run()
	end := time.Now()
	out.noise = probe.stop()
	out.wall = end.Sub(start)
	e.tr.record(0, 0, 0, "TrainingJob.Run", start, end)
	if err != nil {
		return out, fmt.Errorf("training: %w", err)
	}
	if res.Steps != e.steps || int64(len(res.Losses)) != e.steps {
		return out, fmt.Errorf("training ran %d steps (%d losses), want %d", res.Steps, len(res.Losses), e.steps)
	}
	out.steps = res.Steps
	// The window starts once the first tenth of the steps has filled the
	// caches.
	warm, last := e.clock.mark[0], e.clock.mark[1]
	t0, t1 := e.clock.at[warm].Load(), e.clock.at[last].Load()
	if t0 == 0 || t1 <= t0 {
		return out, fmt.Errorf("training: step clock incomplete (step %d at %d, step %d at %d)", warm, t0, last, t1)
	}
	samples := float64((last - warm) * trainBatch)
	out.samplesPerS = samples / time.Duration(t1-t0).Seconds()
	out.cpuPerSample = time.Duration(float64(e.clock.markCPU[1].Load()-e.clock.markCPU[0].Load()) / samples)
	for s := warm + 1; s <= last; s++ {
		a, b := e.clock.at[s-1].Load(), e.clock.at[s].Load()
		if a == 0 || b == 0 {
			return out, fmt.Errorf("training: step %d never reported", s)
		}
		out.stepMs = append(out.stepMs, durMs(b-a))
		out.backlog = append(out.backlog, float64(e.clock.backlog[s].Load()))
	}
	out.lossFinal = finalLoss(res.Losses)
	out.snap = e.job.Snapshot()
	return out, nil
}

// finalLoss is the mean loss of the last tenth of the steps.
func finalLoss(losses []float32) float64 {
	tail := losses[len(losses)-len(losses)/10-1:]
	var sum float64
	for _, l := range tail {
		sum += float64(l)
	}
	return sum / float64(len(tail))
}
