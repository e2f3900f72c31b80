package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"frugal/internal/data"
	"frugal/internal/pq"
	"frugal/internal/runtime"
	"frugal/internal/serve"
	"frugal/internal/stream"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	v, beyond, ok := percentile(xs, 0.99)
	if v != 990 || beyond != 10 || !ok {
		t.Fatalf("p99 of 1..1000 = %v (beyond %d, ok %v), want 990 with 10 beyond", v, beyond, ok)
	}
	v, beyond, ok = percentile(xs, 0.5)
	if v != 500 || beyond != 500 || !ok {
		t.Fatalf("p50 of 1..1000 = %v (beyond %d, ok %v), want 500", v, beyond, ok)
	}
	// 999 samples leave only 9 beyond the p99: not reportable.
	if _, beyond, ok := percentile(xs[:999], 0.99); ok || beyond != 9 {
		t.Fatalf("p99 of 999 samples: beyond %d ok %v, want 9 and not ok", beyond, ok)
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Fatal("p50 of no samples reported")
	}

	ms := newMetrics()
	if ms.pct("short", "ms", xs[:999], 0.99) || ms.m["short"].Value != 0 || ms.m["short"].Samples != 999 {
		t.Fatalf("a p99 without 10 samples beyond it was reported: %+v", ms.m["short"])
	}
	if !ms.pct("p99", "ms", xs, 0.99) || ms.m["p99"].Value != 990 {
		t.Fatalf("p99 of 1000 samples: %+v", ms.m["p99"])
	}
}

func TestMatchFreshness(t *testing.T) {
	const ms = int64(time.Millisecond)
	commit := make([]atomic.Int64, 6)
	for s, at := range []int64{0, 10, 20, 30, 40, 0} { // step 5 never committed
		commit[s].Store(at * ms)
	}
	applied := []int64{15 * ms, 25 * ms, 18 * ms, 0, 45 * ms, 50 * ms}
	fresh, unmatched := matchFreshness(commit, applied, 10*ms, 40*ms)
	// Steps 1..4 are in the window; step 0 (committed at 0) is not
	// counted, step 3 was never seen applied, step 2 was seen applied
	// before its OnStep ran.
	want := []float64{15, 0, 5}
	if unmatched != 1 || len(fresh) != len(want) {
		t.Fatalf("fresh %v unmatched %d, want %v and 1", fresh, unmatched, want)
	}
	for i := range want {
		if fresh[i] != want[i] {
			t.Fatalf("fresh %v, want %v", fresh, want)
		}
	}
}

// fakeClock advances only when the dispatcher sleeps, plus an injected
// stall after a chosen hand-off.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestDispatchLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	ops := make([]op, 5)
	for i := range ops {
		ops[i].at = time.Duration(i) * time.Millisecond
	}
	sent := 0
	late, dropped := dispatch(clk, start, ops, func(i int) bool {
		sent++
		if i == 1 {
			clk.now = clk.now.Add(5 * time.Millisecond) // the hand-off stalls
		}
		return i != 4 // the queue is full for the last op
	})
	// Op 1 is handed off at 1ms and stalls until 6ms; ops 2..4 (due at
	// 2, 3, 4ms) go out at 6ms, late by 4, 3 and 2ms, and keep their
	// original due times for the executors' latency clock.
	want := []float64{0, 0, 4, 3, 2}
	if len(late) != len(want) || sent != 5 || dropped != 1 {
		t.Fatalf("late %v sent %d dropped %d, want %v, 5, 1", late, sent, dropped, want)
	}
	for i := range want {
		if late[i] != want[i] {
			t.Fatalf("late %v, want %v", late, want)
		}
		if due := start.Add(time.Duration(i) * time.Millisecond); !ops[i].due.Equal(due) {
			t.Fatalf("op %d due %v, want %v", i, ops[i].due, due)
		}
	}
}

func TestTimedStoreIdentical(t *testing.T) {
	newHost := func() *runtime.Host {
		h, err := runtime.NewHost(64, dim)
		if err != nil {
			t.Fatal(err)
		}
		h.Init(rowInit(7))
		return h
	}
	plain, inner := newHost(), newHost()
	timed := &timedStore{RowStore: inner}
	delta := make([]float32, dim)
	for j := range delta {
		delta[j] = float32(j) / 100
	}
	for k := uint64(0); k < 64; k += 3 {
		plain.ApplyDelta(k, delta, 0)
		timed.ApplyDelta(k, delta, 0)
	}
	upd := []pq.Update{{Step: 1, Delta: delta}, {Step: 2, Delta: delta}}
	plain.ApplyUpdates(5, upd)
	timed.ApplyUpdates(5, upd)

	a, b := make([]float32, dim), make([]float32, dim)
	for k := uint64(0); k < 64; k++ {
		va := plain.ReadRow(k, a)
		vb := timed.ReadRow(k, b)
		if va != vb {
			t.Fatalf("key %d: version %d through the wrapper, %d without", k, vb, va)
		}
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				t.Fatalf("key %d[%d]: %v through the wrapper, %v without", k, j, b[j], a[j])
			}
		}
		timed.ReadRowDirect(k, b)
		timed.ReadRowLocked(k, b)
	}
	if got := timed.reads.n.Load(); got != 3*64 {
		t.Fatalf("reads counted %d, want %d", got, 3*64)
	}
	if got := timed.writes.n.Load(); got != 23 {
		t.Fatalf("writes counted %d, want 23", got)
	}
	if len(timed.reads.samples()) != 3*64 {
		t.Fatal("read samples missing")
	}
}

// validReads builds lookups that satisfy the serving inequality exactly:
// each key's version is the update count the stream committed through
// the step the read claims.
func validReads(t *testing.T, seed int64, dist data.Distribution) []readMeta {
	t.Helper()
	src, err := stream.New(stream.Options{Batch: liveBatch, Keys: liveRows, Distribution: dist, Seed: seed + 1, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	floors := make([]uint64, liveRows)
	seen := make([]map[uint64]bool, numGPUs)
	var reads []readMeta
	for step := int64(0); step < 20; step++ {
		keys, _ := src.Next()
		addStepUpdates(floors, keys, seen)
		for _, k := range keys[:4] {
			reads = append(reads, readMeta{exec: int(step % 2), bound: 2, key: k,
				meta: serve.RowMeta{Version: floors[k], Watermark: step + 1, Staleness: 1}})
		}
	}
	return reads
}

func TestChecksRejectCorruption(t *testing.T) {
	const seed = 3
	dist := data.DistZipf09
	if err := checkReads(validReads(t, seed, dist), seed, dist, 100); err != nil {
		t.Fatalf("valid reads rejected: %v", err)
	}
	corrupt := map[string]func([]readMeta){
		"version below the committed updates": func(r []readMeta) { r[len(r)-1].meta.Version-- },
		"staleness over the bound":            func(r []readMeta) { r[5].meta.Staleness = 3; r[5].meta.Watermark += 2 },
		"version going backwards": func(r []readMeta) {
			r[len(r)-1] = r[0] // a later read of the same key on the same executor
			r[0].meta.Version += 1000
		},
	}
	for name, mutate := range corrupt {
		r := validReads(t, seed, dist)
		mutate(r)
		if err := checkReads(r, seed, dist, 100); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	a, _ := runtime.NewHost(32, dim)
	b, _ := runtime.NewHost(32, dim)
	a.Init(rowInit(1))
	b.Init(rowInit(1))
	if err := sameRows(a, b); err != nil {
		t.Fatalf("identical slabs differ: %v", err)
	}
	row := make([]float32, dim)
	b.ReadRow(17, row)
	row[3] = math.Float32frombits(math.Float32bits(row[3]) ^ 1)
	b.SetRow(17, row, b.Version(17), 0)
	if err := sameRows(a, b); err == nil {
		t.Error("a one-bit row difference was accepted")
	}

	good := []serve.Candidate{{Key: 1, Score: 3}, {Key: 2, Score: 2}, {Key: 3, Score: 1}}
	if err := checkTopK(good, 3, 10); err != nil {
		t.Fatalf("valid top-K rejected: %v", err)
	}
	bad := map[string][]serve.Candidate{
		"short":     good[:2],
		"unsorted":  {{Key: 1, Score: 1}, {Key: 2, Score: 2}, {Key: 3, Score: 0}},
		"repeated":  {{Key: 1, Score: 3}, {Key: 1, Score: 2}, {Key: 3, Score: 1}},
		"out range": {{Key: 1, Score: 3}, {Key: 2, Score: 2}, {Key: 10, Score: 1}},
		"NaN":       {{Key: 1, Score: 3}, {Key: 2, Score: float32(math.NaN())}, {Key: 3, Score: 1}},
	}
	for name, res := range bad {
		if err := checkTopK(res, 3, 10); err == nil {
			t.Errorf("top-K %s: accepted", name)
		}
	}

	if err := sameLoss(27.7033, 27.7033, 0); err != nil {
		t.Fatalf("equal losses rejected: %v", err)
	}
	if err := sameLoss(27.7034, 27.7033, 0); err == nil {
		t.Error("a different loss was accepted")
	}
	if err := sameLoss(62.04, 62.03, 1e-3); err != nil {
		t.Fatalf("loss within tolerance rejected: %v", err)
	}
	dir := t.TempDir()
	if err := checkLoss(dir, "w-seed1", 1.5, 0); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if err := checkLoss(dir, "w-seed1", 1.5, 0); err != nil {
		t.Fatalf("same loss: %v", err)
	}
	if err := checkLoss(dir, "w-seed1", 1.25, 0); err == nil {
		t.Error("a loss differing from the first run was accepted")
	}

	steady := make([]float64, 300)
	for i := range steady {
		steady[i] = float64(i % liveBatch)
	}
	if err := checkBacklog(steady, liveBatch); err != nil {
		t.Fatalf("steady backlog rejected: %v", err)
	}
	growing := make([]float64, 300)
	for i := range growing {
		growing[i] = float64(i * 50)
	}
	if err := checkBacklog(growing, liveBatch); err == nil {
		t.Error("a growing backlog was accepted")
	}
}

func TestParseCPULine(t *testing.T) {
	c := parseCPULine("cpu  100 5 50 1000 10 0 3 7 0 0")
	if !c.ok || c.total != 1175 || c.steal != 7 {
		t.Fatalf("parsed %+v, want total 1175 steal 7", c)
	}
	if parseCPULine("cpu0 1 2 3").ok {
		t.Fatal("a short line parsed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	sort.Strings(e2e)
	want := append([]string(nil), gated...)
	sort.Strings(want)
	if !equalStrings(e2e, want) {
		t.Errorf("end_to_end %v, benchmark gates %v", e2e, want)
	}

	layers := layerMetrics(trainOut{steps: 1}, liveOut{}, nil, noise{}, os.Stderr)
	for _, n := range allE2E {
		layers.set("overhead."+n, "share", 0, 0)
	}
	for _, n := range wallMetrics {
		layers.set("wall."+n, "", 0, 0)
	}
	var got []string
	for n := range layers.m {
		got = append(got, n)
	}
	sort.Strings(got)
	var per []string
	for _, m := range spec.PerLayer {
		per = append(per, m.Name)
	}
	sort.Strings(per)
	if !equalStrings(got, per) {
		t.Errorf("per_layer lists %d metrics, the traced run prints %d:\n json %v\n run  %v", len(per), len(got), per, got)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
