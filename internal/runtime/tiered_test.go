package runtime

import (
	"sync"

	"bytes"
	"frugal/internal/data"
	"math"
	"testing"
)

// quantBound is the per-element reconstruction bound for a row with the
// given dynamic range: scale/2 plus a little fp slack.
func quantBound(lo, hi float32) float64 {
	return float64(hi-lo)/510*(1+1e-4) + 1e-7
}

func fillRow(k uint64, row []float32) {
	for i := range row {
		row[i] = float32(k)*0.01 + float32(i)*0.1
	}
}

func newTieredTestHost(t *testing.T, rows int64, dim int, hotFrac float64) *Host {
	t.Helper()
	h, err := NewTieredHost(rows, dim, hotFrac)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(fillRow)
	return h
}

func TestTieredHostReadWrite(t *testing.T) {
	const rows, dim = 200, 16
	h := newTieredTestHost(t, rows, dim, 0.1)
	if !h.Tiered() {
		t.Fatal("host should report tiered")
	}
	if got := h.tier.hotCap; got != rows/10 {
		t.Fatalf("hot capacity %d, want %d", got, rows/10)
	}
	want := make([]float32, dim)
	got := make([]float32, dim)
	for k := uint64(0); k < rows; k++ {
		fillRow(k, want)
		h.ReadRow(k, got)
		bound := 0.0 // head of the ID space starts hot: exact
		if k >= 20 {
			bound = quantBound(want[0], want[dim-1])
		}
		for i := range want {
			if err := math.Abs(float64(want[i] - got[i])); err > bound {
				t.Fatalf("row %d[%d]: |%v − %v| = %v > %v", k, i, want[i], got[i], err, bound)
			}
		}
	}

	// SetRow into a cold row requantizes; the new content must read back
	// within the new row's bound.
	repl := make([]float32, dim)
	for i := range repl {
		repl[i] = -1 + float32(i)*0.25
	}
	h.SetRow(150, repl, 7, 0)
	if v := h.ReadRow(150, got); v != 7 {
		t.Fatalf("version %d, want 7", v)
	}
	bound := quantBound(repl[0], repl[dim-1])
	for i := range repl {
		if err := math.Abs(float64(repl[i] - got[i])); err > bound {
			t.Fatalf("replaced row[%d]: error %v > %v", i, err, bound)
		}
	}
}

func TestTieredApplyDelta(t *testing.T) {
	const rows, dim = 100, 8
	h := newTieredTestHost(t, rows, dim, 0.05) // 5 hot slots
	delta := make([]float32, dim)
	for i := range delta {
		delta[i] = 0.5
	}

	// Hot row: exact accumulation.
	before := h.Snapshot(2)
	h.ApplyDelta(2, delta, 0)
	after := h.Snapshot(2)
	for i := range after {
		if after[i] != before[i]+0.5 {
			t.Fatalf("hot apply[%d]: %v, want %v", i, after[i], before[i]+0.5)
		}
	}
	if h.Version(2) != 1 {
		t.Fatalf("version %d, want 1", h.Version(2))
	}

	// Cold row: dequantize → accumulate → requantize, bounded error.
	before = h.Snapshot(50)
	h.ApplyDelta(50, delta, 0)
	after = h.Snapshot(50)
	lo, hi := before[0]+0.5, before[dim-1]+0.5
	bound := quantBound(lo, hi) * 2 // input was already one quantize deep
	for i := range after {
		if err := math.Abs(float64(after[i] - (before[i] + 0.5))); err > bound {
			t.Fatalf("cold apply[%d]: error %v > %v", i, err, bound)
		}
	}
	if h.TierStats().ColdWrites == 0 {
		t.Fatal("cold apply should count a cold write")
	}
}

func TestTierPromotionDemotion(t *testing.T) {
	const rows, dim = 64, 8
	h := newTieredTestHost(t, rows, dim, 0.1) // 6 hot slots, rows 0–5
	tr := h.tier

	// A cold row hammered at the flush boundary must be promoted, and a
	// head row (never accessed) demoted to make room.
	key := uint64(40)
	before := h.Snapshot(key)
	for i := 0; i < 4 && tr.tier[key].Load() == 0; i++ {
		h.TierMaintain(key, false)
	}
	if tr.tier[key].Load() == 0 {
		t.Fatal("hot key was not promoted")
	}
	st := h.TierStats()
	if st.Promotions == 0 || st.Demotions == 0 {
		t.Fatalf("stats %+v: want ≥1 promotion and ≥1 demotion", st)
	}
	// Promotion dequantizes the cold image: content is preserved exactly
	// (the hot copy is the dequantized view) and the version untouched.
	after := h.Snapshot(key)
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("promotion changed content[%d]: %v → %v", i, before[i], after[i])
		}
	}
	if h.Version(key) != 0 {
		t.Fatalf("tier move bumped version to %d", h.Version(key))
	}

	// The demoted victim must still read back within its quant bound.
	demoted := uint64(0xffff)
	for k := uint64(0); k < 6; k++ {
		if tr.tier[k].Load() == 0 {
			demoted = k
			break
		}
	}
	if demoted == 0xffff {
		t.Fatal("no head row was demoted")
	}
	want := make([]float32, dim)
	fillRow(demoted, want)
	got := h.Snapshot(demoted)
	bound := quantBound(want[0], want[dim-1])
	for i := range got {
		if err := math.Abs(float64(want[i] - got[i])); err > bound {
			t.Fatalf("demoted row[%d]: error %v > %v", i, err, bound)
		}
	}
}

func TestTieredScoreRows(t *testing.T) {
	const rows, dim = 50, 8
	h := newTieredTestHost(t, rows, dim, 0.2)
	q := make([]float32, dim)
	for i := range q {
		q[i] = float32(i%3) - 1
	}
	out := make([]float32, rows)
	h.ScoreRows(q, 0, out)
	row := make([]float32, dim)
	for k := 0; k < rows; k++ {
		h.ReadRow(uint64(k), row)
		var want float64
		for i := range q {
			want += float64(q[i]) * float64(row[i])
		}
		if err := math.Abs(float64(out[k]) - want); err > 1e-3 {
			t.Fatalf("score[%d]: %v vs %v", k, out[k], want)
		}
	}
}

func TestTieredCheckpointRoundtrip(t *testing.T) {
	const rows, dim = 120, 16
	h := newTieredTestHost(t, rows, dim, 0.1)
	h.EnableOptimizerState()
	h.ApplyDelta(3, make([]float32, dim), 1.25) // hot, with opt state
	h.ApplyDelta(90, make([]float32, dim), 2.5) // cold
	h.TierMaintain(60, false)                   // shuffle the tier map a bit
	h.TierMaintain(60, false)

	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), buf.Bytes()...)

	// LoadHost reproduces a tiered host bit-identically: same snapshots,
	// and — because the serialization is canonical — identical re-save.
	h2, err := LoadHost(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	if !h2.Tiered() {
		t.Fatal("v2 checkpoint should load as a tiered host")
	}
	for k := uint64(0); k < rows; k++ {
		a, b := h.Snapshot(k), h2.Snapshot(k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d[%d]: %v != %v", k, i, a[i], b[i])
			}
		}
	}
	if h2.OptState(3) != 1.25 || h2.OptState(90) != 2.5 {
		t.Fatal("optimizer state lost across tiered checkpoint")
	}
	var buf2 bytes.Buffer
	if err := h2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, buf2.Bytes()) {
		t.Fatal("re-saved tiered checkpoint differs: serialization is not canonical")
	}

	// v2 → untiered host: cold rows dequantize into the slab.
	flat, err := NewHost(rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	flat.Load(bytes.NewReader(saved))
	for k := uint64(0); k < rows; k++ {
		a, b := h.Snapshot(k), flat.Snapshot(k)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("flat-loaded row %d[%d]: %v != %v", k, i, a[i], b[i])
			}
		}
	}

	// v1 → tiered host: the cold tail quantizes on entry.
	var flatBuf bytes.Buffer
	if err := flat.Save(&flatBuf); err != nil {
		t.Fatal(err)
	}
	h3, err := NewTieredHost(rows, dim, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h3.Load(&flatBuf); err != nil {
		t.Fatal(err)
	}
	row := make([]float32, dim)
	for k := uint64(0); k < rows; k++ {
		want := flat.Snapshot(k)
		h3.ReadRow(k, row)
		bound := 0.0
		if k >= 12 {
			lo, hi := want[0], want[0]
			for _, v := range want {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			bound = quantBound(lo, hi)
		}
		for i := range want {
			if err := math.Abs(float64(want[i] - row[i])); err > bound {
				t.Fatalf("v1→tiered row %d[%d]: error %v > %v", k, i, err, bound)
			}
		}
	}
}

func TestCaptureRestoreRow(t *testing.T) {
	const rows, dim = 80, 8
	h := newTieredTestHost(t, rows, dim, 0.1)
	h.SetRow(50, []float32{1, 2, 3, 4, 5, 6, 7, 8}, 9, 0)

	img := RowImage{Row: make([]float32, dim), Q: make([]int8, dim)}
	h.CaptureRow(50, &img)
	if !img.Cold || img.Version != 9 {
		t.Fatalf("capture: cold=%v version=%d, want cold v9", img.Cold, img.Version)
	}

	// Restore onto a fresh tiered host: codes land verbatim.
	h2 := newTieredTestHost(t, rows, dim, 0.1)
	h2.RestoreRow(50, &img)
	img2 := RowImage{Row: make([]float32, dim), Q: make([]int8, dim)}
	h2.CaptureRow(50, &img2)
	if !img2.Cold || img2.Scale != img.Scale || img2.Zero != img.Zero || !bytes.Equal(int8Bytes(img.Q), int8Bytes(img2.Q)) {
		t.Fatal("cold restore is not bit-identical")
	}
	if img2.Version != 9 {
		t.Fatalf("restored version %d, want 9", img2.Version)
	}

	// A stale (older-version) image must not land or move the tier.
	stale := RowImage{Version: 3, Cold: false, Row: make([]float32, dim)}
	h2.RestoreRow(50, &stale)
	if h2.tier.tier[50].Load() != 0 || h2.Version(50) != 9 {
		t.Fatal("stale restore moved the row")
	}

	// A hot-tagged image promotes the row on restore.
	img.Cold = false
	img.Version = 10
	h2.RestoreRow(50, &img)
	if h2.tier.tier[50].Load() == 0 {
		t.Fatal("hot restore left the row cold")
	}
	got := h2.Snapshot(50)
	for i := range got {
		if got[i] != img.Row[i] {
			t.Fatalf("hot restore[%d]: %v != %v", i, got[i], img.Row[i])
		}
	}

	// Restore onto an untiered host dequantizes into the slab.
	img.Cold = true
	flat, _ := NewHost(rows, dim)
	flat.RestoreRow(50, &img)
	want := make([]float32, dim)
	h.ReadRow(50, want)
	got = flat.Snapshot(50)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("untiered restore[%d]: %v != %v", i, got[i], want[i])
		}
	}
}

func int8Bytes(q []int8) []byte {
	b := make([]byte, len(q))
	for i, c := range q {
		b[i] = byte(c)
	}
	return b
}

func TestTieredHostValidation(t *testing.T) {
	if _, err := NewTieredHost(10, 4, 0); err == nil {
		t.Fatal("hot fraction 0 should be rejected")
	}
	if _, err := NewTieredHost(10, 4, 1.5); err == nil {
		t.Fatal("hot fraction >1 should be rejected")
	}
	if _, err := NewTieredHost(0, 4, 0.5); err == nil {
		t.Fatal("zero rows should be rejected")
	}
	h, err := NewTieredHost(10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.tier.hotCap != 10 {
		t.Fatalf("hot capacity %d, want all 10 rows", h.tier.hotCap)
	}
}

// TestTieredTrainingWithReaders is the tier-move consistency test: a real
// EngineFrugal job on a tiered slab with the gate invariant checked every
// step, while concurrent readers scan and read rows the whole run. Run
// under -race this exercises promotion/demotion racing flush applies and
// reads; any gate violation fails the job, and tier moves must actually
// happen for the run to count.
func TestTieredTrainingWithReaders(t *testing.T) {
	const (
		rows = 400
		dim  = 8
	)
	trace := data.NewSyntheticTrace(data.NewScrambledZipf(17, rows, 0.9), 64, 60)
	job, err := NewMicro(Config{
		Engine: EngineFrugal, NumGPUs: 2, Rows: rows, Dim: dim,
		CacheRatio: 0.1, LR: 0.1, Seed: 17, CheckConsistency: true,
		FlushThreads: 4, ColdTier: true, HotFraction: 0.03,
	}, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	host := job.Host()
	if !host.Tiered() {
		t.Fatal("ColdTier job should allocate a tiered host")
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			row := make([]float32, dim)
			scores := make([]float32, rows)
			query := make([]float32, dim)
			query[r] = 1
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				host.ReadRow(uint64((i*7+r)%rows), row)
				if i%16 == 0 {
					host.ScoreRowsLocked(query, 0, scores)
				}
			}
		}(r)
	}
	res, err := job.Run()
	close(stop)
	readers.Wait()
	if err != nil {
		t.Fatal(err) // a gate violation surfaces here via CheckConsistency
	}
	if res.Steps != 60 {
		t.Fatalf("completed %d steps, want 60", res.Steps)
	}
	st := host.TierStats()
	if st.Promotions == 0 || st.Demotions == 0 {
		t.Fatalf("no tier movement under a zipf trace: %+v", st)
	}
	if st.HotRows <= 0 || st.HotRows > rows {
		t.Fatalf("hot rows %d out of range", st.HotRows)
	}
}

func TestColdTierConfigValidation(t *testing.T) {
	bad := []Config{
		{Rows: 10, Dim: 4, HotFraction: 0.5},                 // HotFraction without ColdTier
		{Rows: 10, Dim: 4, ColdTier: true, HotFraction: 1.5}, // out of range
		{Rows: 10, Dim: 4, ColdTier: true, HotFraction: -1},
	}
	for i, cfg := range bad {
		if err := cfg.normalize(); err == nil {
			t.Fatalf("config %d should be invalid: %+v", i, cfg)
		}
	}
	good := Config{Rows: 10, Dim: 4, ColdTier: true}
	if err := good.normalize(); err != nil {
		t.Fatal(err)
	}
	if good.HotFraction != 0.1 {
		t.Fatalf("HotFraction default %v, want 0.1", good.HotFraction)
	}
}
