package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"frugal/internal/ckpt"
	"frugal/internal/runtime"
)

// fakeProber stands in for the P²F controller: a settable watermark and
// per-key staleness, with the controller's (lag, watermark) contract.
type fakeProber struct {
	mu  sync.Mutex
	wm  int64
	lag map[uint64]int64
}

func (p *fakeProber) Watermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wm
}

func (p *fakeProber) RowStaleness(key uint64) (int64, int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lag[key], p.wm
}

func (p *fakeProber) set(wm int64, lag map[uint64]int64) {
	p.mu.Lock()
	p.wm = wm
	p.lag = lag
	p.mu.Unlock()
}

func newHost(t *testing.T, rows int64, dim int) *runtime.Host {
	t.Helper()
	h, err := runtime.NewHost(rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// touch writes a distinguishable row image at the given version and
// marks it dirty in the log.
func touch(h *runtime.Host, w *ckpt.Writer, key, ver uint64) {
	row := make([]float32, h.Dim())
	for i := range row {
		row[i] = float32(key)*100 + float32(ver) + float32(i)
	}
	h.SetRow(key, row, ver, 0)
	w.OnFlush(key)
}

// newTestWriter opens a log with a sweep interval long enough that only
// explicit Sync calls cut segments.
func newTestWriter(t *testing.T, h *runtime.Host, pr ckpt.Prober, dir string, compactEvery int) *ckpt.Writer {
	t.Helper()
	w, err := ckpt.NewWriter(h, pr, ckpt.Options{
		Dir: dir, SweepInterval: time.Hour, CompactEvery: compactEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func reconstructEqual(t *testing.T, dir string, h *runtime.Host) {
	t.Helper()
	rec, err := ckpt.Reconstruct(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := h.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := rec.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("reconstructed slab differs from the live host")
	}
}

func TestWriterLogRoundtrip(t *testing.T) {
	dir := t.TempDir()
	h := newHost(t, 16, 4)
	pr := &fakeProber{}
	w := newTestWriter(t, h, pr, dir, 0)
	defer w.Close()

	st, err := ckpt.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseSeq != 0 || len(st.Segments) != 0 || st.MetaPath != "" {
		t.Fatalf("fresh log: %+v", st)
	}

	for k := uint64(1); k <= 5; k++ {
		touch(h, w, k, k+1)
	}
	pr.set(7, map[uint64]int64{3: 2})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	st, err = ckpt.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Segments) != 1 || st.Segments[0].Seq != 1 {
		t.Fatalf("after one sweep: %+v", st)
	}
	seen := map[uint64]ckpt.Record{}
	wm, err := ckpt.ReadSegment(st.Segments[0].Path, h.Rows(), h.Dim(), func(rec *ckpt.Record) error {
		c := *rec
		c.Row = append([]float32(nil), rec.Row...)
		seen[rec.Key] = c
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if wm != 7 {
		t.Fatalf("segment watermark %d, want 7", wm)
	}
	if len(seen) != 5 {
		t.Fatalf("segment holds %d records, want 5", len(seen))
	}
	for k := uint64(1); k <= 5; k++ {
		rec, ok := seen[k]
		if !ok {
			t.Fatalf("key %d missing from segment", k)
		}
		if rec.Version != k+1 {
			t.Fatalf("key %d version %d, want %d", k, rec.Version, k+1)
		}
		wantSafe := int64(7)
		if k == 3 {
			wantSafe = 5 // wm 7 − lag 2
		}
		if rec.SafeStep != wantSafe {
			t.Fatalf("key %d safe step %d, want %d", k, rec.SafeStep, wantSafe)
		}
	}

	// A second sweep only carries what changed since the first.
	touch(h, w, 2, 10)
	pr.set(9, nil)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	reconstructEqual(t, dir, h)

	ws := w.Stats()
	if ws.Segments != 2 || ws.Records != 6 || ws.Compactions != 0 || ws.BaseSeq != 0 {
		t.Fatalf("stats %+v", ws)
	}
}

func TestWriterCompaction(t *testing.T) {
	dir := t.TempDir()
	h := newHost(t, 8, 4)
	pr := &fakeProber{}
	w := newTestWriter(t, h, pr, dir, 2)
	defer w.Close()

	touch(h, w, 1, 4)
	pr.set(3, map[uint64]int64{1: 1})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	touch(h, w, 2, 6)
	pr.set(5, nil)
	if err := w.Sync(); err != nil { // second segment triggers the fold
		t.Fatal(err)
	}

	st, err := ckpt.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseSeq != 2 || len(st.Segments) != 0 {
		t.Fatalf("after compaction: %+v", st)
	}
	if st.MetaPath == "" {
		t.Fatal("compacted base has no sidecar")
	}
	if _, err := os.Stat(filepath.Join(dir, "base-0000000000.ckpt")); !os.IsNotExist(err) {
		t.Fatalf("superseded base survives: %v", err)
	}
	// With no segment past the base, an opened replica holds exactly the
	// base and its sidecar.
	rep, err := ckpt.OpenReplica(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Watermark() != 5 {
		t.Fatalf("sidecar watermark %d, want 5", rep.Watermark())
	}
	if rep.SafeStep(1) != 2 || rep.SafeStep(2) != 5 {
		t.Fatalf("sidecar safe steps %d, %d", rep.SafeStep(1), rep.SafeStep(2))
	}
	if v1, v2 := rep.Host().Version(1), rep.Host().Version(2); v1 != 4 || v2 != 6 {
		t.Fatalf("sidecar versions %d, %d", v1, v2)
	}
	reconstructEqual(t, dir, h)

	// The log keeps rolling on top of the new base.
	touch(h, w, 3, 2)
	pr.set(6, nil)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	st, err = ckpt.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseSeq != 2 || len(st.Segments) != 1 || st.Segments[0].Seq != 3 {
		t.Fatalf("post-compaction tail: %+v", st)
	}
	reconstructEqual(t, dir, h)
	if ws := w.Stats(); ws.Compactions != 1 || ws.BaseSeq != 2 {
		t.Fatalf("stats %+v", ws)
	}
}

// TestReconstructKeepsCompactedVersions: the log promises row versions
// as well as row bytes. After a fold, the base's sidecar is the only
// place the folded rows' versions live, so Reconstruct must read it —
// not only the base slab, whose codec carries no versions.
func TestReconstructKeepsCompactedVersions(t *testing.T) {
	dir := t.TempDir()
	h := newHost(t, 8, 4)
	pr := &fakeProber{}
	w := newTestWriter(t, h, pr, dir, 2)
	defer w.Close()

	touch(h, w, 1, 4)
	pr.set(3, map[uint64]int64{1: 1})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	touch(h, w, 2, 6)
	pr.set(5, nil)
	if err := w.Sync(); err != nil { // second segment triggers the fold
		t.Fatal(err)
	}
	touch(h, w, 3, 2)
	pr.set(6, nil)
	if err := w.Sync(); err != nil { // one sealed segment past the fold
		t.Fatal(err)
	}
	if ws := w.Stats(); ws.Compactions != 1 {
		t.Fatalf("stats %+v, want one compaction", ws)
	}
	rec, err := ckpt.Reconstruct(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < uint64(h.Rows()); k++ {
		if got, want := rec.Version(k), h.Version(k); got != want {
			t.Errorf("key %d reconstructed at v%d, want v%d", k, got, want)
		}
	}
}

func TestSalvageTornTail(t *testing.T) {
	dir := t.TempDir()
	h := newHost(t, 8, 4)
	pr := &fakeProber{}
	w := newTestWriter(t, h, pr, dir, 0)
	for k := uint64(0); k < 5; k++ {
		touch(h, w, k, 3)
	}
	pr.set(2, nil)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay a crashed sweep: the sealed segment's bytes, torn
	// mid-record, under the .open temp name.
	sealed, err := os.ReadFile(filepath.Join(dir, "seg-0000000001.dlog"))
	if err != nil {
		t.Fatal(err)
	}
	open := filepath.Join(dir, "seg-0000000002.open")
	if err := os.WriteFile(open, sealed[:len(sealed)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ckpt.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.OpenPath != open {
		t.Fatalf("ListDir open path %q, want %q", st.OpenPath, open)
	}
	var got int64
	n, err := ckpt.Salvage(open, h.Rows(), h.Dim(), func(*ckpt.Record) error { got++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || got != 4 {
		t.Fatalf("salvaged %d records (callback saw %d), want the 4-record complete prefix", n, got)
	}

	// Not even a full header: nothing to salvage, and no error — the
	// crash simply lost that sweep.
	if err := os.WriteFile(open, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := ckpt.Salvage(open, h.Rows(), h.Dim(), func(*ckpt.Record) error { return nil }); err != nil || n != 0 {
		t.Fatalf("header-less salvage: %d records, err %v", n, err)
	}
}

func TestListDirRejectsSegmentGap(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"base-0000000000.ckpt", "seg-0000000002.dlog"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ckpt.ListDir(dir); err == nil {
		t.Fatal("segment gap (base 0, first segment 2) accepted")
	}
}

func TestNewWriterRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "leftover"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	h := newHost(t, 4, 2)
	if _, err := ckpt.NewWriter(h, &fakeProber{}, ckpt.Options{Dir: dir}); err == nil {
		t.Fatal("writer opened over a non-empty directory")
	}
}

// TestWriterEarlyRunHighLag covers the SafeStep corner at the start of a
// run, where residual lag can exceed the watermark and kwm − lag would
// reach −1 — the Meta sidecar's "never written" sentinel, making a
// logged row indistinguishable from one the log never captured.
func TestWriterEarlyRunHighLag(t *testing.T) {
	dir := t.TempDir()
	h := newHost(t, 8, 4)
	pr := &fakeProber{}
	w := newTestWriter(t, h, pr, dir, 0)
	defer w.Close()

	// Nothing committed anywhere (watermark −1): the record's claim
	// "every update committed at step ≤ 0 is present" is vacuously true,
	// so the writer clamps to 0 instead of emitting the sentinel.
	touch(h, w, 1, 1)
	pr.set(-1, nil)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	recs := readAllRecords(t, dir, h.Rows(), h.Dim())
	rec, ok := recs[1]
	if !ok {
		t.Fatal("key 1 missing from the first segment")
	}
	if rec.SafeStep != 0 {
		t.Fatalf("key 1 SafeStep %d, want 0 (clamped)", rec.SafeStep)
	}

	// Watermark 2 with residual lag 5: a committed write is still
	// pending and no SafeStep ≥ 0 would be honest, so the key must be
	// deferred — absent from this segment, carried to the next sweep.
	touch(h, w, 2, 1)
	pr.set(2, map[uint64]int64{2: 5})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if recs = readAllRecords(t, dir, h.Rows(), h.Dim()); len(recs) != 1 {
		t.Fatalf("deferred key was logged anyway: %d records on disk", len(recs))
	}

	// The flush lands (lag drops below the watermark): the carried-over
	// key is captured with an honest bound, with no further OnFlush.
	pr.set(3, map[uint64]int64{2: 1})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	recs = readAllRecords(t, dir, h.Rows(), h.Dim())
	rec, ok = recs[2]
	if !ok {
		t.Fatal("deferred key never resurfaced on the next sweep")
	}
	if rec.SafeStep != 2 {
		t.Fatalf("key 2 SafeStep %d, want 2 (wm 3 − lag 1)", rec.SafeStep)
	}
	for _, r := range recs {
		if r.SafeStep < 0 {
			t.Fatalf("record with SafeStep %d escaped to disk", r.SafeStep)
		}
	}
}

// readAllRecords folds every sealed segment's records by key
// (last-writer-wins, like the follower).
func readAllRecords(t *testing.T, dir string, rows int64, dim int) map[uint64]ckpt.Record {
	t.Helper()
	st, err := ckpt.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[uint64]ckpt.Record{}
	for _, seg := range st.Segments {
		_, err := ckpt.ReadSegment(seg.Path, rows, dim, func(rec *ckpt.Record) error {
			c := *rec
			c.Row = append([]float32(nil), rec.Row...)
			out[rec.Key] = c
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// newTieredHost builds a small tiered host with a distinguishable fill.
func newTieredHost(t *testing.T, rows int64, dim int, hotFrac float64) *runtime.Host {
	t.Helper()
	h, err := runtime.NewTieredHost(rows, dim, hotFrac)
	if err != nil {
		t.Fatal(err)
	}
	h.Init(func(k uint64, row []float32) {
		for i := range row {
			row[i] = float32(k)*0.5 + float32(i)*0.125
		}
	})
	return h
}

func TestTieredWriterLogRoundtrip(t *testing.T) {
	dir := t.TempDir()
	h := newTieredHost(t, 64, 8, 0.1) // 6 hot slots: rows 0–5
	pr := &fakeProber{}
	pr.set(5, nil)
	w := newTestWriter(t, h, pr, dir, 0)

	touch(h, w, 2, 1)  // hot row
	touch(h, w, 40, 1) // cold row: requantized by SetRow
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// Drive a tier move. The promotion (and the demotion it forces) must
	// re-mark the moved keys dirty via the tier-move hook — no explicit
	// OnFlush here — or the final images would hold pre-move bytes.
	for i := 0; i < 4 && h.TierStats().Promotions == 0; i++ {
		h.TierMaintain(40, false)
	}
	if h.TierStats().Promotions == 0 || h.TierStats().Demotions == 0 {
		t.Fatal("tier move did not happen; test drives nothing")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	reconstructEqual(t, dir, h)

	// The log must carry the cold tier natively: tier-tagged records with
	// verbatim codes, not blanket float32 images.
	var sawCold, sawHot bool
	st, err := ckpt.ListDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range st.Segments {
		if _, err := ckpt.ReadSegment(seg.Path, h.Rows(), h.Dim(), func(rec *ckpt.Record) error {
			if rec.Cold {
				sawCold = true
			} else {
				sawHot = true
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !sawCold || !sawHot {
		t.Fatalf("tiered log should hold both record flavors (cold=%v hot=%v)", sawCold, sawHot)
	}
}

func TestTieredWriterCompaction(t *testing.T) {
	dir := t.TempDir()
	h := newTieredHost(t, 48, 8, 0.125) // 6 hot slots
	pr := &fakeProber{}
	w := newTestWriter(t, h, pr, dir, 2)

	ver := uint64(0)
	for sweep := 0; sweep < 5; sweep++ {
		pr.set(int64(sweep+1), nil)
		ver++
		touch(h, w, uint64(sweep), ver)    // hot head keys
		touch(h, w, uint64(20+sweep), ver) // cold tail keys
		h.TierMaintain(uint64(20+sweep), false)
		h.TierMaintain(uint64(20+sweep), false)
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Stats().Compactions == 0 {
		t.Fatal("compaction never ran")
	}
	reconstructEqual(t, dir, h)
}

// segHeaderSize is the on-disk size of a segment header (magic, version,
// dim, state flag, record count, watermark).
const segHeaderSize = 4 + 4 + 4 + 4 + 8 + 8

// setRecordKey overwrites the key of record i in a segment of an
// untiered host without optimizer state, whose records are 24+1+4·dim
// bytes each (prefix, hot tag, float32 row).
func setRecordKey(t *testing.T, path string, dim, i int, key uint64) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[segHeaderSize+i*(25+4*dim):], key)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentKeyOutOfRange plants a key past the slab in the middle of a
// sealed segment. ReadSegment and Reconstruct must refuse the segment
// with an error naming it and the record, and Salvage must keep the
// records before it — none of them may index the slab with the key.
func TestSegmentKeyOutOfRange(t *testing.T) {
	dir := t.TempDir()
	h := newHost(t, 16, 4)
	w := newTestWriter(t, h, &fakeProber{}, dir, 0)
	for k := uint64(1); k <= 3; k++ {
		touch(h, w, k, 1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-0000000001.dlog")
	setRecordKey(t, seg, h.Dim(), 1, 1<<40)

	var seen int
	_, err := ckpt.ReadSegment(seg, h.Rows(), h.Dim(), func(*ckpt.Record) error { seen++; return nil })
	if err == nil {
		t.Fatal("ReadSegment accepted a key past the slab")
	}
	for _, want := range []string{"seg-0000000001.dlog", "record 1/3", "out of range"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("ReadSegment error %q does not say %q", err, want)
		}
	}
	if seen != 1 {
		t.Fatalf("fn saw %d records before the bad one, want 1", seen)
	}
	if _, err := ckpt.Reconstruct(dir); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("Reconstruct: err = %v, want the out-of-range refusal", err)
	}

	sealed, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	open := filepath.Join(dir, "seg-0000000002.open")
	if err := os.WriteFile(open, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := ckpt.Salvage(open, h.Rows(), h.Dim(), func(*ckpt.Record) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("Salvage = (%d, %v), want the 1-record prefix", n, err)
	}
}

// TestCompactionKeyOutOfRange corrupts a sealed segment before the
// writer folds it: compaction must fail with the segment's error, not
// index its shadow slab with the key.
func TestCompactionKeyOutOfRange(t *testing.T) {
	dir := t.TempDir()
	h := newHost(t, 16, 4)
	pr := &fakeProber{}
	w := newTestWriter(t, h, pr, dir, 2)
	touch(h, w, 1, 1)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	setRecordKey(t, filepath.Join(dir, "seg-0000000001.dlog"), h.Dim(), 0, 1<<40)
	touch(h, w, 2, 1)
	pr.set(1, nil)
	err := w.Sync()
	if err == nil || !strings.Contains(err.Error(), "seg-0000000001.dlog") || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("compaction over a corrupt segment: err = %v", err)
	}
	w.Close()
}

// TestOpenReplicaRefusesHugeBase plants a base that is a bare checkpoint
// header claiming 2^62×4 rows (past the slab bound) or 2^27×32 rows (a
// 16 GiB body in a 24-byte file). OpenReplica must return an error
// before allocating either shape.
func TestOpenReplicaRefusesHugeBase(t *testing.T) {
	for _, tc := range []struct {
		rows int64
		dim  int32
		want string
	}{
		{1 << 62, 4, "exceeds"},
		{1 << 27, 32, "needs at least 17179869184 bytes, 0 remain"},
	} {
		dir := t.TempDir()
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, struct {
			Magic, Version uint32
			Rows           int64
			Dim, HasState  int32
		}{0xF21A6A10, 1, tc.rows, tc.dim, 0})
		if err := os.WriteFile(filepath.Join(dir, "base-0000000000.ckpt"), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ckpt.OpenReplica(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%d×%d base: err = %v, want %q", tc.rows, tc.dim, err, tc.want)
		}
	}
}
