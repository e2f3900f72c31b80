package runtime

import (
	"math"
	"strings"
	"testing"

	"frugal/internal/cache"
	"frugal/internal/data"
)

func TestPrefetchConfigValidation(t *testing.T) {
	trace := func() KeyTrace {
		return data.NewSyntheticTrace(data.NewScrambledZipf(1, 100, 0.9), 16, 4)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"direct", Config{Engine: EngineDirect, Rows: 100, Dim: 4, Prefetch: true},
			"cached engine"},
		{"depth-without-prefetch", Config{Engine: EngineFrugal, Rows: 100, Dim: 4, PrefetchDepth: 4},
			"requires Prefetch"},
		{"negative-depth", Config{Engine: EngineFrugal, Rows: 100, Dim: 4, Prefetch: true, PrefetchDepth: -1},
			"must be positive"},
		{"depth-beyond-lookahead", Config{Engine: EngineFrugal, Rows: 100, Dim: 4,
			Prefetch: true, Lookahead: 5, PrefetchDepth: 6},
			"exceeds Lookahead"},
	}
	for _, tc := range cases {
		_, err := NewMicro(tc.cfg, trace(), 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// The write-through engine has no lookahead queue, so its depth is not
	// bounded by Lookahead.
	if _, err := NewMicro(Config{Engine: EngineFrugalSync, Rows: 100, Dim: 4,
		Prefetch: true, PrefetchDepth: 32}, trace(), 0); err != nil {
		t.Fatalf("frugal-sync deep prefetch rejected: %v", err)
	}
}

// Prefetch must be a pure latency optimization: training with it on and
// off produces bit-identical final host parameters at 1 GPU (a cached row
// is only ever served at its exact content version, so the gradient
// sequence cannot change). At 4 GPUs the comparison is tolerance-based —
// multi-writer keys receive their partial deltas in flush-arrival order,
// which reorders float additions run to run with or without prefetch (the
// TestEngineEquivalence tolerance), so bitwise identity is not available
// to diff against.
func TestPrefetchDeterminism(t *testing.T) {
	type variant struct {
		engine Engine
		gpus   int
	}
	for _, v := range []variant{
		{EngineFrugal, 1}, {EngineFrugal, 4},
		{EngineFrugalSync, 1}, {EngineFrugalSync, 4},
	} {
		run := func(prefetch bool) *Host {
			trace := data.NewSyntheticTrace(data.NewScrambledZipf(13, 400, 0.9), 48, 30)
			job, err := NewMicro(Config{
				Engine: v.engine, NumGPUs: v.gpus, Rows: 400, Dim: 4,
				CacheRatio: 0.1, LR: 0.3, Seed: 13, CheckConsistency: true,
				FlushThreads: 3, Prefetch: prefetch,
			}, trace, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := job.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Steps != 30 {
				t.Fatalf("%s/%d: steps = %d", v.engine, v.gpus, res.Steps)
			}
			if prefetch && res.CacheStats.PrefetchFills == 0 {
				t.Fatalf("%s/%d: prefetch enabled but no fills recorded", v.engine, v.gpus)
			}
			return job.Host()
		}
		off, on := run(false), run(true)
		for k := uint64(0); k < 400; k++ {
			a, b := off.Snapshot(k), on.Snapshot(k)
			for d := range a {
				if v.gpus == 1 && a[d] != b[d] {
					t.Fatalf("%s/%d: row %d dim %d diverged: off=%v on=%v",
						v.engine, v.gpus, k, d, a[d], b[d])
				}
				if math.Abs(float64(a[d]-b[d])) > 1e-3 {
					t.Fatalf("%s/%d: row %d dim %d diverged beyond tolerance: off=%v on=%v",
						v.engine, v.gpus, k, d, a[d], b[d])
				}
			}
		}
	}
}

// The point of the exercise: on a Zipf trace the lookahead window covers
// every upcoming batch before its gather runs, so demand misses collapse
// to pin-reject and stale-race residue — at least a 50% reduction.
func TestPrefetchReducesDemandMisses(t *testing.T) {
	run := func(engine Engine, prefetch bool) Result {
		trace := data.NewSyntheticTrace(data.NewScrambledZipf(7, 5000, 0.9), 128, 60)
		// The cache must hold the lookahead window's working set for
		// window pinning to pay off: 1000 slots against ~700 distinct keys
		// per 10-batch window. (At CacheRatio 0.1 the window saturates the
		// sets and the reduction shrinks to ~55%.)
		job, err := NewMicro(Config{
			Engine: engine, NumGPUs: 1, Rows: 5000, Dim: 16,
			CacheRatio: 0.2, Seed: 7, CheckConsistency: true,
			Prefetch: prefetch,
		}, trace, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, engine := range []Engine{EngineFrugal, EngineFrugalSync} {
		off, on := run(engine, false), run(engine, true)
		offRate, onRate := off.CacheStats.MissRate(), on.CacheStats.MissRate()
		if offRate == 0 {
			t.Fatalf("%s: prefetch-off run had no misses; test is vacuous", engine)
		}
		if onRate > offRate/2 {
			t.Errorf("%s: demand miss rate %.4f with prefetch, %.4f without — want ≥50%% reduction",
				engine, onRate, offRate)
		}
		if on.CacheStats.PrefetchHits == 0 {
			t.Errorf("%s: no demand lookups served from prefetched rows", engine)
		}
	}
}

// Pin-pressure stress for the race detector: one-set caches (rowsPerGPU
// clamps to Ways) keep every set near-fully pinned by epoch pins and
// window pins at once, exercising the spill/reject paths while 4 trainers,
// the flusher pool and 4 prefetchers run concurrently. The consistency
// check and the race detector are the assertions that matter; the explicit
// checks confirm the blockade actually happened.
func TestPrefetchPinStressFullSets(t *testing.T) {
	for _, engine := range []Engine{EngineFrugal, EngineFrugalSync} {
		trace := data.NewSyntheticTrace(data.NewScrambledZipf(5, 300, 0.9), 64, 25)
		// LR stays small: a hot Zipf key occurring m times in a batch takes
		// m gradient steps per global step, and m·LR > 2 makes the
		// quadratic toy loss diverge — an SGD property, not a cache one.
		job, err := NewMicro(Config{
			Engine: engine, NumGPUs: 4, Rows: 300, Dim: 4,
			CacheRatio: 0.01, // 3 rows → clamped to one Ways-wide set per GPU
			LR:         0.02, Seed: 5, CheckConsistency: true, FlushThreads: 3,
			Prefetch: true, PrefetchDepth: 4,
		}, trace, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 25 {
			t.Fatalf("%s: steps = %d", engine, res.Steps)
		}
		if res.Losses[len(res.Losses)-1] >= res.Losses[0] {
			t.Fatalf("%s: loss did not drop under pin pressure", engine)
		}
		cs := res.CacheStats
		if cs.PinRejects+cs.WindowPinRejects == 0 {
			t.Fatalf("%s: one-set caches never rejected a fill — blockade not exercised", engine)
		}
	}
}

// racingSlab is a RowStore that lands one update on key between the
// prefetcher's Versions probe and its GatherRows read — a flush racing a
// fill chunk.
type racingSlab struct {
	*Host
	key    uint64
	raced  bool
	probed bool
}

func (s *racingSlab) Versions(keys []uint64, out []uint64) {
	s.probed = true
	s.Host.Versions(keys, out)
}

func (s *racingSlab) GatherRows(keys []uint64, dsts [][]float32, locked bool) {
	if s.probed && !s.raced {
		s.raced = true
		s.Host.ApplyDelta(s.key, []float32{1, 1, 1, 1}, 0)
	}
	s.Host.GatherRows(keys, dsts, locked)
}

// A fill is tagged with the version probed before its gather, so a flush
// that lands in between leaves the tag behind the bytes, never ahead of
// them: the next demand gather, which wants the row's current version,
// must refill the row rather than serve it.
func TestPrefetchTagNeverOverstates(t *testing.T) {
	const key, dim = 5, 4
	h, err := NewHost(16, dim)
	if err != nil {
		t.Fatal(err)
	}
	h.ApplyDelta(key, []float32{1, 2, 3, 4}, 0)
	slab := &racingSlab{Host: h, key: key}
	c := cache.MustNew(cache.Ways, dim)
	p := newPrefetcher(0, 1, c, slab, 1, 1)
	p.fill(&pfBatch{keys: []uint64{key}})
	if !slab.raced {
		t.Fatal("the fill chunk never gathered after its version probe")
	}
	i := c.PeekSlot(key)
	if i < 0 {
		t.Fatal("the prefetcher did not fill the key")
	}
	tag, ver := c.SlotVersion(i), h.Version(key)
	if tag > ver {
		t.Fatalf("slot tag %d overstates the row's version %d", tag, ver)
	}
	if tag != 1 || ver != 2 {
		t.Fatalf("tag %d, version %d: want the probed 1 against the raced 2", tag, ver)
	}
	if _, hit := c.Lookup(key, ver); hit {
		t.Fatalf("demand gather at version %d served the fill tagged %d", ver, tag)
	}
	if st := c.Stats(); st.StaleHits != 1 || st.PrefetchLate != 1 || st.PrefetchHits != 0 {
		t.Fatalf("stats %+v: want one stale miss on a late, unused prefetch", st)
	}
}
