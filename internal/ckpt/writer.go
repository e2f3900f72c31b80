package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"frugal/internal/runtime"
)

// Prober is the slice of the P²F controller the writer needs: the
// committed-step watermark and the per-key one-sided staleness probe.
// *p2f.Controller implements it.
type Prober interface {
	Watermark() int64
	RowStaleness(key uint64) (lag, watermark int64)
}

// Options shapes a Writer.
type Options struct {
	// Dir is the log directory. It is created if missing and must not
	// already hold a log (resume is a reader-side operation: reconstruct,
	// then start a fresh log).
	Dir string
	// SweepInterval is the sweep cadence — how often dirty keys are
	// drained into a sealed segment (default 50ms). This, times the
	// primary's step rate, is the follower's steady-state staleness.
	SweepInterval time.Duration
	// SweepRecords triggers an early sweep when this many keys are dirty
	// (default 8192), bounding segment size under write bursts.
	SweepRecords int
	// CompactEvery folds the log into a fresh base after this many sealed
	// segments (default 16). 0 disables compaction (tests); folded
	// segments and superseded bases are deleted.
	CompactEvery int
}

func (o *Options) normalize() error {
	if o.Dir == "" {
		return fmt.Errorf("ckpt: Options.Dir is required")
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = 50 * time.Millisecond
	}
	if o.SweepRecords <= 0 {
		o.SweepRecords = 8192
	}
	if o.CompactEvery < 0 {
		return fmt.Errorf("ckpt: CompactEvery must be ≥ 0, got %d", o.CompactEvery)
	}
	return nil
}

// WriterStats is a point-in-time snapshot of the log's accounting.
type WriterStats struct {
	Segments    int64 `json:"segments"`    // sealed segments written
	Records     int64 `json:"records"`     // row images logged
	Compactions int64 `json:"compactions"` // bases folded
	BaseSeq     int64 `json:"baseSeq"`     // highest base's segment seq
	DirtyDepth  int64 `json:"dirtyDepth"`  // keys awaiting the next sweep
}

// Writer cuts the delta-checkpoint log off a live training job: OnFlush
// (registered as a p2f flush hook) marks keys dirty, and a background
// sweeper drains the dirty set into watermark-tagged segments, compacting
// periodically. The step loop never blocks on the log — the hook is one
// mutex-guarded map insert, and all IO happens on the sweeper goroutine.
type Writer struct {
	host *runtime.Host
	pr   Prober
	opt  Options

	mu    sync.Mutex
	dirty map[uint64]struct{}
	spare map[uint64]struct{} // swap target, so sweeps never block the hook for long

	kick chan struct{} // size-triggered early sweep

	seq         int64 // last sealed segment seq (sweeper goroutine only)
	baseSeq     int64
	lastWM      int64 // watermark of the last sealed segment
	sinceFold   int   // sealed segments since the last compaction
	segments    atomic.Int64
	records     atomic.Int64
	compactions atomic.Int64

	// shadow replays the log for compaction: opened at the first fold,
	// then caught up and written out as each new base.
	shadow *Replica

	// Reusable sweep buffers: steady-state sweeps allocate only the
	// segment file machinery.
	keys     []uint64
	safeBuf  []int64
	deferBuf []uint64
	rec      Record // capture target
	recBuf   []byte

	stop     chan struct{}
	done     chan struct{}
	syncOnce sync.Once
	syncC    chan chan struct{}

	errMu sync.Mutex
	err   error // first background IO error, surfaced by Close
}

// NewWriter starts a delta-checkpoint log for host: writes the initial
// base (base-0000000000) and launches the sweeper. Register OnFlush with
// the job's controller (p2f.Controller.AddFlushHook) before training
// starts, and Close the writer after the run's epilogue has drained —
// the final sweep then captures the exact final state.
func NewWriter(host *runtime.Host, pr Prober, opt Options) (*Writer, error) {
	if host == nil {
		return nil, fmt.Errorf("ckpt: nil host")
	}
	if pr == nil {
		return nil, fmt.Errorf("ckpt: nil prober (the log needs the P²F watermark surface)")
	}
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	ents, err := os.ReadDir(opt.Dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if len(ents) != 0 {
		return nil, fmt.Errorf("ckpt: %s is not empty — a log already lives there", opt.Dir)
	}
	w := &Writer{
		host:   host,
		pr:     pr,
		opt:    opt,
		dirty:  make(map[uint64]struct{}, opt.SweepRecords),
		spare:  make(map[uint64]struct{}, opt.SweepRecords),
		kick:   make(chan struct{}, 1),
		lastWM: -1,
		rec:    newRecord(host.Dim()),
		recBuf: make([]byte, 0, maxRecordSize(host.Dim())),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if host.Tiered() {
		// A demotion requantizes a row's authoritative bytes without
		// bumping its version, outside the flush hook's sight. The move
		// hook re-marks the key dirty so the next sweep re-captures it —
		// without this, the log's last image of a moved row would hold the
		// pre-move representation and reconstruction would drift.
		host.SetTierMoveHook(w.OnFlush)
	}
	if err := w.writeBase(0, host, nil); err != nil {
		return nil, err
	}
	go w.sweeper()
	return w, nil
}

// OnFlush marks a key dirty. It is the p2f flush-hook target: called with
// the g-entry mutex held, so it must stay this cheap (one map insert).
func (w *Writer) OnFlush(key uint64) {
	w.mu.Lock()
	w.dirty[key] = struct{}{}
	n := len(w.dirty)
	w.mu.Unlock()
	if n >= w.opt.SweepRecords {
		select {
		case w.kick <- struct{}{}:
		default:
		}
	}
}

// Dir returns the log directory.
func (w *Writer) Dir() string { return w.opt.Dir }

// Stats snapshots the log accounting.
func (w *Writer) Stats() WriterStats {
	w.mu.Lock()
	depth := int64(len(w.dirty))
	w.mu.Unlock()
	return WriterStats{
		Segments:    w.segments.Load(),
		Records:     w.records.Load(),
		Compactions: w.compactions.Load(),
		BaseSeq:     atomic.LoadInt64(&w.baseSeq),
		DirtyDepth:  depth,
	}
}

// Sync forces one sweep now (tests and demos; normal operation relies on
// the interval). It blocks until the segment — if any keys were dirty —
// is sealed.
func (w *Writer) Sync() error {
	select {
	case <-w.done:
		return w.firstErr()
	default:
	}
	ack := make(chan struct{})
	select {
	case w.syncReq() <- ack:
		<-ack
	case <-w.done:
	}
	return w.firstErr()
}

func (w *Writer) syncReq() chan chan struct{} {
	w.syncOnce.Do(func() { w.syncC = make(chan chan struct{}) })
	return w.syncC
}

// Close performs the final sweep (call it after training's epilogue has
// drained every pending update to host memory), seals the last segment,
// stops the sweeper, and returns the first background IO error, if any.
func (w *Writer) Close() error {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
	return w.firstErr()
}

func (w *Writer) firstErr() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

func (w *Writer) setErr(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.errMu.Unlock()
}

// sweeper is the single background goroutine: interval- and
// size-triggered sweeps, inline compaction, and the final sweep at stop.
func (w *Writer) sweeper() {
	defer close(w.done)
	t := time.NewTicker(w.opt.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			w.sweep() // final: the epilogue's drain-flushed keys
			return
		case <-t.C:
			w.sweep()
		case <-w.kick:
			w.sweep()
		case ack := <-w.syncReq():
			w.sweep()
			close(ack)
		}
	}
}

// sweep drains the dirty set into one sealed segment. The watermark is
// loaded before any row is probed or copied — one-sided safe: everything
// the segment claims was flushed by `wm`, and rows read after can only
// be fresher.
func (w *Writer) sweep() {
	wm := w.pr.Watermark()
	w.mu.Lock()
	w.dirty, w.spare = w.spare, w.dirty
	swept := w.spare
	w.mu.Unlock()
	if len(swept) == 0 && wm == w.lastWM {
		return // nothing flushed, nothing committed: no segment
	}
	w.keys = w.keys[:0]
	for k := range swept {
		w.keys = append(w.keys, k)
	}
	clear(swept)

	deferred, err := w.writeSegment(w.seq+1, wm, w.keys)
	if err != nil {
		w.setErr(err)
		return
	}
	if len(deferred) > 0 {
		// Keys whose staleness probe could bound nothing yet (a committed
		// write still pending with the watermark barely started) carry to
		// the next sweep — by then the flush has landed and the record
		// gets an honest SafeStep.
		w.mu.Lock()
		for _, k := range deferred {
			w.dirty[k] = struct{}{}
		}
		w.mu.Unlock()
	}
	w.seq++
	w.lastWM = wm
	w.segments.Add(1)
	w.records.Add(int64(len(w.keys) - len(deferred)))
	w.sinceFold++
	if w.opt.CompactEvery > 0 && w.sinceFold >= w.opt.CompactEvery {
		if err := w.compact(); err != nil {
			w.setErr(err)
			return
		}
		w.sinceFold = 0
	}
}

// writeSegment captures one record per key and seals the segment via
// rename. Per record: the one-sided staleness probe first, then the
// locked (row, state, version) snapshot — the copy can only be fresher
// than the probe promised. Keys whose probe cannot bound anything yet
// are returned as deferred (the caller re-marks them dirty) rather than
// logged with a lying SafeStep; the returned slice is reused across
// sweeps.
func (w *Writer) writeSegment(seq, wm int64, keys []uint64) (deferred []uint64, err error) {
	// Partition before the header is written, so its record count is
	// exact. SafeStep = watermark − lag is the step through which the
	// image is guaranteed complete; early in a run residual lag can
	// exceed the watermark, driving it to −1 — which is exactly the
	// sidecar's "never written" sentinel, so the logged row would
	// read back as never-logged. Two sub-cases:
	//   - watermark == −1: nothing is committed anywhere, so "every
	//     update committed at step ≤ 0 is present" is vacuously true —
	//     clamp to 0.
	//   - watermark ≥ 0: a committed write (step 0) is still pending,
	//     so *no* SafeStep ≥ 0 would be honest. Defer the key to the
	//     next sweep, which sees the flush land and bounds it properly.
	w.deferBuf = w.deferBuf[:0]
	w.safeBuf = w.safeBuf[:0]
	kept := keys[:0] // filtered in place: write index never passes read index
	for _, key := range keys {
		lag, kwm := w.pr.RowStaleness(key)
		safe := kwm - lag
		if safe < 0 {
			if kwm >= 0 {
				w.deferBuf = append(w.deferBuf, key)
				continue
			}
			safe = 0
		}
		kept = append(kept, key)
		w.safeBuf = append(w.safeBuf, safe)
	}

	hasState := w.host.HasOptState()
	hdr := segHeader{
		Magic: segMagic, Version: segVer,
		Dim: int32(w.host.Dim()), Records: int64(len(kept)), Watermark: wm,
	}
	if hasState {
		hdr.HasState = 1
	}
	name := filepath.Join(w.opt.Dir, fmt.Sprintf("seg-%010d", seq))
	err = writeSealed(name+".open", name+".dlog", func(f io.Writer) error {
		bw := bufio.NewWriterSize(f, 1<<16)
		if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
			return err
		}
		rec := &w.rec
		for i, key := range kept {
			rec.Key = key
			rec.SafeStep = w.safeBuf[i]
			// One critical section captures version, state and the row in
			// its current tier — a cold row's codes verbatim.
			w.host.CaptureRow(key, &rec.RowImage)
			w.recBuf = appendRecord(w.recBuf[:0], hasState, rec)
			bw.Write(w.recBuf) // bufio keeps the first error for Flush
		}
		return bw.Flush()
	})
	return w.deferBuf, err
}

// compact folds every sealed segment since the last base into a fresh
// base checkpoint, then deletes the folded segments and the superseded
// base. Runs inline on the sweeper goroutine — off the step loop, which
// never waits for it.
func (w *Writer) compact() error {
	if w.shadow == nil {
		var err error
		if w.shadow, err = OpenReplica(w.opt.Dir); err != nil {
			return err
		}
	}
	if err := w.shadow.CatchUp(); err != nil {
		return err
	}
	oldBase, to := w.baseSeq, w.shadow.Seq()
	if err := w.writeBase(to, w.shadow.Host(), w.shadow); err != nil {
		return err
	}
	atomic.StoreInt64(&w.baseSeq, to)
	w.compactions.Add(1)
	// Cleanup is best-effort: stray files never confuse ListDir, which
	// keys on the highest base.
	os.Remove(filepath.Join(w.opt.Dir, fmt.Sprintf("base-%010d.ckpt", oldBase)))
	os.Remove(filepath.Join(w.opt.Dir, fmt.Sprintf("base-%010d.meta", oldBase)))
	for seq := oldBase + 1; seq <= to; seq++ {
		os.Remove(filepath.Join(w.opt.Dir, fmt.Sprintf("seg-%010d.dlog", seq)))
	}
	return nil
}

// writeBase writes a base checkpoint (slab via the runtime codec) and,
// for a compaction, the shadow replica's sidecar. The sidecar is sealed
// first, so a reader that sees the base also finds it.
func (w *Writer) writeBase(seq int64, host *runtime.Host, shadow *Replica) error {
	base := filepath.Join(w.opt.Dir, fmt.Sprintf("base-%010d", seq))
	if shadow != nil {
		if err := writeSealed(base+".meta.tmp", base+".meta", shadow.writeMeta); err != nil {
			return err
		}
	}
	return writeSealed(base+".ckpt.tmp", base+".ckpt", host.Save)
}

// writeSealed writes a file under a temporary name and renames it into
// place, so a reader never sees it partial; on failure the temporary is
// removed.
func writeSealed(tmp, path string, write func(io.Writer) error) error {
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %s: %w", filepath.Base(path), err)
	}
	return nil
}
