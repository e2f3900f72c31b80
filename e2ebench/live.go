package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"frugal"
	"frugal/internal/data"
	"frugal/internal/obs"
	"frugal/internal/serve"
)

// The live segment: a paced stream job cutting a delta log, a follower
// tailing it, an IVF engine on the primary, and one open-loop dispatcher
// in front of at most two query executors.
const (
	liveRows      = 100_000
	liveBatch     = 128
	liveRate      = 25_000.0 // events/s the IVF repair sustains on 2 CPUs
	sweepInterval = 20 * time.Millisecond
	catchUpEvery  = 5 * time.Millisecond
	sampleEvery   = 10 * time.Millisecond
	// liveWarm is the head of the live segment whose requests are served
	// and checked but not timed: the caches fill and the IVF repair queue
	// reaches its steady depth.
	liveWarm     = time.Second
	lookupKeys   = 16
	lookupRate   = 400.0 // lookup requests/s, half to each replica
	topkRate     = 120.0 // top-K requests/s, all on the primary
	topK         = 16
	primaryBound = 2
	topkBound    = 4
	// ivfCentroids partitions the live table for the primary's IVF index
	// (≈ 4·√rows would take seconds of k-means per set-up).
	ivfCentroids = 256
	executors    = 2
	// freshTail excludes steps committed this close to the window's end
	// from freshness: the stream stops right after.
	freshTail = 500 * time.Millisecond
)

// liveSpec shapes a workload's live segment.
type liveSpec struct {
	dist     data.Distribution
	prefetch bool
}

// querier is the query surface both replicas expose.
type querier interface {
	Query(ctx context.Context, req serve.Request) (serve.Response, error)
}

type liveEnv struct {
	spec     liveSpec
	seed     int64
	dir      string
	horizon  int64
	sj       *frugal.StreamJob
	ran      bool
	primary  *serve.Engine
	follower *frugal.FollowerServer
	clock    *stepClock
	tr       *tracer
}

func liveSeconds(seconds int) time.Duration {
	return time.Duration(float64(seconds) * (1 - trainShare) * float64(time.Second))
}

func setupLive(spec liveSpec, seed int64, seconds int, tmpRoot string, tr *tracer) (*liveEnv, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "live-")
	if err != nil {
		return nil, err
	}
	env := &liveEnv{spec: spec, seed: seed, dir: dir, tr: tr}
	// Twice the steps the window needs: the horizon only sizes the
	// priority queue, the window ends the stream.
	env.horizon = int64(liveSeconds(seconds).Seconds()*liveRate/liveBatch)*2 + 1000
	env.clock = newStepClock(env.horizon, -1, -1)
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
	t := time.Now()
	sj, err := frugal.NewStreamJob(cfg, frugal.StreamOptions{
		Rate: liveRate, Batch: liveBatch, KeySpace: liveRows, Distribution: string(spec.dist),
		Dim: dim, Horizon: env.horizon, LogDir: dir, SweepInterval: sweepInterval,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	env.sj = sj
	tr.record(0, 0, 0, "NewStreamJob", t, time.Now())
	t = time.Now()
	env.primary, err = serve.New(sj.Host(), sj.Controller(), serve.Options{Index: serve.IndexIVF, Centroids: ivfCentroids})
	if err != nil {
		env.close()
		return nil, err
	}
	tr.record(0, 0, 0, "serve.New", t, time.Now())
	t = time.Now()
	env.follower, err = frugal.NewServerFromLog(dir, frugal.ServeOptions{}, frugal.FollowOptions{})
	if err != nil {
		env.close()
		return nil, err
	}
	tr.record(0, 0, 0, "NewServerFromLog", t, time.Now())
	return env, nil
}

// close stops a stream job that never ran (its log writer's sweeper is
// already running) and removes the log directory.
func (e *liveEnv) close() {
	if e.sj != nil && !e.ran {
		e.sj.Stop()
		e.sj.Run(context.Background())
		e.ran = true
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// opKind is a request type of the open-loop schedule.
type opKind uint8

const (
	opLookup opKind = iota
	opTopK
)

// op is one scheduled request: its offset from the schedule start, and
// its inputs.
type op struct {
	at     time.Duration
	kind   opKind
	warm   bool      // inside liveWarm: served and checked, not timed
	keys   []uint64  // lookups
	vector []float32 // top-K
	// due is the absolute due time, set by the dispatcher before it hands
	// the op to an executor.
	due time.Time
}

// buildSchedule lays lookups and top-K requests out at fixed rates over
// window, interleaved in due order, with keys and query vectors drawn
// from seed.
func buildSchedule(seed int64, dist data.Distribution, window time.Duration) ([]op, error) {
	gen, err := data.NewGen(dist, seed+7, liveRows)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 11))
	nl := int(window.Seconds() * lookupRate)
	nt := int(window.Seconds() * topkRate)
	ops := make([]op, 0, nl+nt)
	li, ti := 0, 0
	for li < nl || ti < nt {
		lat := time.Duration(float64(li) / lookupRate * float64(time.Second))
		tat := time.Duration((float64(ti) + 0.5) / topkRate * float64(time.Second))
		if ti >= nt || (li < nl && lat <= tat) {
			keys := make([]uint64, lookupKeys)
			for i := range keys {
				keys[i] = gen.Next()
			}
			ops = append(ops, op{at: lat, kind: opLookup, keys: keys, warm: lat < liveWarm})
			li++
			continue
		}
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(rng.NormFloat64())
		}
		ops = append(ops, op{at: tat, kind: opTopK, vector: v, warm: tat < liveWarm})
		ti++
	}
	return ops, nil
}

// clock abstracts time for the dispatcher (a fake one in tests).
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }
func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// dispatch is the open-loop generator: it hands op i to send at
// start+ops[i].at no matter how far behind the executors are, and
// records how late each hand-off was. send returns false when the
// executors' queue is full; the op is then dropped.
func dispatch(clk clock, start time.Time, ops []op, send func(i int) bool) (lateMs []float64, dropped int) {
	lateMs = make([]float64, 0, len(ops))
	for i := range ops {
		ops[i].due = start.Add(ops[i].at)
		clk.SleepUntil(ops[i].due)
		lateMs = append(lateMs, durMs(clk.Now().Sub(ops[i].due).Nanoseconds()))
		if !send(i) {
			dropped++
		}
	}
	return lateMs, dropped
}

// readMeta is one served lookup row's consistency metadata, kept for the
// post-run checks.
type readMeta struct {
	exec     int
	follower bool
	bound    int64
	key      uint64
	meta     serve.RowMeta
}

// execOut is one executor's record.
type execOut struct {
	lookupMs, topkMs []float64
	lookupCallUs     []float64
	topkCallMs       []float64
	failed           int
	refreshed        int
	reads            []readMeta
	errs             []error // wrong responses
}

// liveOut is what one live segment measured.
type liveOut struct {
	attempted, failed int
	lookupMs, topkMs  []float64
	lateMs            []float64
	freshMs           []float64
	lookupCallUs      []float64
	topkCallMs        []float64
	catchUpMs         []float64
	lagSteps          []float64
	refreshedShare    float64
	ivfPending        []float64
	dirtyDepth        []float64
	backlog           []float64
	ivfRepairsPerS    float64
	followerRecPerS   float64
	segmentsPerS      float64
	recordsPerSegment float64
	logBytesPerS      float64
	emittedPerS       float64
	urgentPerS        float64
	window            time.Duration
	noise             noise
	snap              frugal.Snapshot
	checkErrs         []error
}

func runLive(e *liveEnv, seconds int) (liveOut, error) {
	var out liveOut
	window := liveSeconds(seconds)
	ops, err := buildSchedule(e.seed, e.spec.dist, window)
	if err != nil {
		return out, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runRes struct {
		res frugal.Result
		err error
	}
	runDone := make(chan runRes, 1)
	probe := startNoise()
	// The open-loop schedule starts with the stream; rates and freshness
	// count from the end of the warm-up.
	schedStart := time.Now()
	e.ran = true
	go func() {
		res, err := e.sj.Run(ctx)
		runDone <- runRes{res, err}
	}()

	// The follower is driven from here: CatchUp on a fixed cadence, and
	// the moment each step is first seen applied.
	applied := make([]int64, e.horizon+1)
	stopTail := make(chan struct{})
	var tailWG sync.WaitGroup
	var tailErr error
	tailWG.Add(1)
	go func() {
		defer tailWG.Done()
		tick := time.NewTicker(catchUpEvery)
		defer tick.Stop()
		seen := int64(-1)
		for {
			select {
			case <-stopTail:
				return
			case <-tick.C:
			}
			t := time.Now()
			err := e.follower.CatchUp()
			now := time.Now()
			e.tr.record(0, 0, 0, "FollowerServer.CatchUp", t, now)
			out.catchUpMs = append(out.catchUpMs, durMs(now.Sub(t).Nanoseconds()))
			out.attempted++
			if err != nil {
				out.failed++
				if tailErr == nil {
					tailErr = err
				}
				continue
			}
			wm := e.follower.ReplicaStats().AppliedWatermark
			if wm > e.horizon {
				wm = e.horizon
			}
			for s := seen + 1; s <= wm; s++ {
				applied[s] = now.UnixNano()
			}
			if wm > seen {
				seen = wm
			}
			if last := e.clock.last.Load(); last >= 0 {
				out.lagSteps = append(out.lagSteps, float64(last-seen))
			}
		}
	}()

	// Samplers: the stream backlog always (a growing backlog invalidates
	// the run), the other gauges only when tracing.
	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
			}
			out.backlog = append(out.backlog, float64(e.sj.Backlog()))
			if e.tr != nil {
				out.ivfPending = append(out.ivfPending, float64(e.primary.IndexStats().Pending))
				out.dirtyDepth = append(out.dirtyDepth, float64(e.sj.LogStats().DirtyDepth))
			}
		}
	}()

	var startLog frugal.DeltaLogStats
	var startRepairs, startEmitted int64
	var startRepl obs.ReplicaSnapshot
	var startSnap frugal.Snapshot
	warmDone := make(chan struct{})
	go func() {
		defer close(warmDone)
		time.Sleep(time.Until(schedStart.Add(liveWarm)))
		startLog, startRepairs = e.sj.LogStats(), e.primary.IndexStats().Repairs
		startEmitted = e.sj.Emitted()
		startRepl = e.follower.ReplicaStats().Replication
		startSnap = e.sj.Snapshot()
	}()
	// The queue holds every op of the window, so the dispatcher never
	// blocks on it; an op finds it full only if the executors stall for
	// the whole window, and is then dropped.
	queue := make(chan int, len(ops))
	execs := make([]execOut, executors)
	var execWG sync.WaitGroup
	for x := 0; x < executors; x++ {
		execWG.Add(1)
		go func(x int) {
			defer execWG.Done()
			execute(ctx, e, x, ops, queue, &execs[x])
		}(x)
	}
	late, dropped := dispatch(wallClock{}, schedStart, ops, func(i int) bool {
		select {
		case queue <- i:
			return true
		default:
			return false
		}
	})
	close(queue)
	execWG.Wait()
	<-warmDone
	schedEnd := time.Now()
	out.window = schedEnd.Sub(schedStart.Add(liveWarm))
	endLog, endRepairs := e.sj.LogStats(), e.primary.IndexStats().Repairs
	endRepl := e.follower.ReplicaStats().Replication
	endSnap := e.sj.Snapshot()
	out.emittedPerS = float64(e.sj.Emitted()-startEmitted) / out.window.Seconds()

	out.noise = probe.stop()
	setPhase(passLabel(e.tr) + " pass: live, stopping the stream")
	cancel()
	rr := <-runDone
	close(stopSample)
	sampleWG.Wait()
	// Let the tail see the final sealed segment before it stops.
	time.Sleep(3 * catchUpEvery)
	close(stopTail)
	tailWG.Wait()
	if rr.err != nil {
		return out, fmt.Errorf("stream job: %w", rr.err)
	}
	if tailErr != nil {
		return out, fmt.Errorf("follower catch-up: %w", tailErr)
	}
	if err := e.follower.CatchUp(); err != nil {
		return out, fmt.Errorf("final follower catch-up: %w", err)
	}

	for i, o := range ops {
		if !o.warm {
			out.lateMs = append(out.lateMs, late[i])
		}
	}
	out.attempted += len(ops)
	out.failed += dropped
	var lookups int
	var reads []readMeta
	for _, x := range execs {
		out.lookupMs = append(out.lookupMs, x.lookupMs...)
		out.topkMs = append(out.topkMs, x.topkMs...)
		out.lookupCallUs = append(out.lookupCallUs, x.lookupCallUs...)
		out.topkCallMs = append(out.topkCallMs, x.topkCallMs...)
		out.failed += x.failed
		out.refreshedShare += float64(x.refreshed)
		lookups += len(x.lookupCallUs)
		reads = append(reads, x.reads...)
		out.checkErrs = append(out.checkErrs, x.errs...)
	}
	out.refreshedShare = ratio(out.refreshedShare, float64(lookups))
	fresh, unmatched := matchFreshness(e.clock.at, applied,
		schedStart.Add(liveWarm).UnixNano(), schedEnd.Add(-freshTail).UnixNano())
	out.freshMs = fresh
	if unmatched > 0 {
		out.checkErrs = append(out.checkErrs, fmt.Errorf("freshness: %d committed steps never seen applied by the follower", unmatched))
	}

	secs := out.window.Seconds()
	out.ivfRepairsPerS = float64(endRepairs-startRepairs) / secs
	out.followerRecPerS = float64(endRepl.RecordsApplied-startRepl.RecordsApplied) / secs
	segs := float64(endLog.Segments - startLog.Segments)
	out.segmentsPerS = segs / secs
	out.recordsPerSegment = ratio(float64(endLog.Records-startLog.Records), segs)
	out.logBytesPerS = float64(endLog.Records-startLog.Records) * float64(recordBytes) / secs
	out.urgentPerS = float64(endSnap.UrgentEntries-startSnap.UrgentEntries) / secs
	out.snap = e.sj.Snapshot()

	setPhase(passLabel(e.tr) + " pass: live, checking outputs")
	if err := checkReads(reads, e.seed, e.spec.dist, e.horizon); err != nil {
		out.checkErrs = append(out.checkErrs, err)
	}
	if err := checkBacklog(out.backlog, liveBatch); err != nil {
		out.checkErrs = append(out.checkErrs, err)
	}
	rec, err := frugal.ReconstructLog(e.dir)
	if err != nil {
		out.checkErrs = append(out.checkErrs, fmt.Errorf("reconstruct log: %w", err))
	} else if err := sameRows(rec, e.sj.Host()); err != nil {
		out.checkErrs = append(out.checkErrs, fmt.Errorf("reconstructed log vs primary: %w", err))
	}
	if e.tr != nil && out.snap.FlushApplied != out.snap.FlushEnqueued {
		out.checkErrs = append(out.checkErrs, fmt.Errorf("stream job: FlushApplied %d != FlushEnqueued %d after Run",
			out.snap.FlushApplied, out.snap.FlushEnqueued))
	}
	return out, nil
}

// recordBytes approximates one f32 delta-log row image: key, version
// and safe-step words plus the row.
const recordBytes = 24 + 4*dim

// execute serves ops from queue until it closes. Lookups alternate
// between the primary and the follower by schedule position.
func execute(ctx context.Context, e *liveEnv, x int, ops []op, queue <-chan int, out *execOut) {
	dst := make([]float32, dim)
	var tooStale *serve.ErrTooStale
	var shed *serve.ErrShed
	for i := range queue {
		o := &ops[i]
		reqID := e.tr.newID()
		start := time.Now()
		ok := true
		switch o.kind {
		case opLookup:
			follower := i%2 == 1
			var q querier = e.primary
			bound := int64(primaryBound)
			if follower {
				q, bound = e.follower, e.horizon
			}
			for _, k := range o.keys {
				t := time.Now()
				resp, err := q.Query(ctx, serve.Request{Key: k, Dst: dst, Level: serve.Bounded(bound)})
				d := time.Since(t)
				e.tr.record(0, reqID, reqID, "Server.Query/lookup", t, t.Add(d))
				if !o.warm {
					out.lookupCallUs = append(out.lookupCallUs, float64(d)/float64(time.Microsecond))
				}
				if err != nil {
					if !errors.As(err, &tooStale) && !errors.As(err, &shed) && len(out.errs) < 8 {
						out.errs = append(out.errs, fmt.Errorf("lookup key %d: %w", k, err))
					}
					ok = false
					break
				}
				if resp.Meta.Refreshed && !o.warm {
					out.refreshed++
				}
				out.reads = append(out.reads, readMeta{exec: x, follower: follower, bound: bound, key: k, meta: resp.Meta})
			}
			end := time.Now()
			e.tr.record(reqID, 0, reqID, "request/lookup", o.due, end)
			if ok && !o.warm {
				out.lookupMs = append(out.lookupMs, durMs(end.Sub(o.due).Nanoseconds()))
			}
		case opTopK:
			resp, err := e.primary.Query(ctx, serve.Request{Vector: o.vector, K: topK, Level: serve.Bounded(topkBound)})
			end := time.Now()
			e.tr.record(0, reqID, reqID, "Server.Query/topk", start, end)
			e.tr.record(reqID, 0, reqID, "request/topk", o.due, end)
			if !o.warm {
				out.topkCallMs = append(out.topkCallMs, durMs(end.Sub(start).Nanoseconds()))
			}
			if err != nil {
				if !errors.As(err, &tooStale) && !errors.As(err, &shed) && len(out.errs) < 8 {
					out.errs = append(out.errs, fmt.Errorf("top-K: %w", err))
				}
				ok = false
			} else if err := checkTopK(resp.Results, topK, liveRows); err != nil {
				if len(out.errs) < 8 {
					out.errs = append(out.errs, err)
				}
			} else if !o.warm {
				out.topkMs = append(out.topkMs, durMs(end.Sub(o.due).Nanoseconds()))
			}
		}
		if !ok {
			out.failed++
		}
	}
}

// matchFreshness pairs each step committed in [from, to] (unix ns) with
// the moment the follower was first seen to have applied it, returning
// the gaps in ms and how many such steps were never seen applied.
func matchFreshness(committed []atomic.Int64, applied []int64, from, to int64) (freshMs []float64, unmatched int) {
	for s := range committed {
		c := committed[s].Load()
		if c == 0 || c < from || c > to {
			continue
		}
		if s >= len(applied) || applied[s] == 0 {
			unmatched++
			continue
		}
		gap := applied[s] - c
		if gap < 0 {
			// Applied before OnStep ran: the commit callback lost the race
			// to the log; the step was fresh as soon as it committed.
			gap = 0
		}
		freshMs = append(freshMs, durMs(gap))
	}
	return freshMs, unmatched
}
