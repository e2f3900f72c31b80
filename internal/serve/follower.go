package serve

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"frugal/internal/ckpt"
	"frugal/internal/obs"
	"frugal/internal/runtime"
	"frugal/internal/store"
)

// ErrReplica reports a consistency demand a follower cannot satisfy:
// fresh (or bounded, after catching the log up) needs updates that only
// the primary holds. Clients retry, lower the level, or go to the
// primary; after promotion the follower is authoritative and the error
// disappears.
type ErrReplica struct {
	Key       uint64
	Staleness int64
	Watermark int64
}

func (e *ErrReplica) Error() string {
	return fmt.Sprintf("serve: replica lags key %d by %d gate steps (watermark %d); only the primary can satisfy this read",
		e.Key, e.Staleness, e.Watermark)
}

// FollowerOptions shapes a Follower.
type FollowerOptions struct {
	// Poll is the log-tail interval of Run (default 50ms).
	Poll time.Duration
	// WaitForLog keeps NewFollower retrying while the log directory has
	// no base yet — a follower booted alongside its primary (default:
	// fail immediately).
	WaitForLog time.Duration
	// PromoteAfter makes Run self-promote once the log has not grown for
	// this long — the primary is presumed dead (default: never; call
	// Promote explicitly).
	PromoteAfter time.Duration
	// Engine configures the serving engine over the replica slab. The
	// IVF index is not supported on followers (its repair feed is the
	// primary's flush stream).
	Engine Options
}

// Follower is a serve replica that follows a delta-checkpoint log
// (internal/ckpt): it reconstructs the slab from the latest base, tails
// sealed segments into its own host memory, and serves reads through a
// standard Engine whose consistency gate reports replication lag as the
// staleness bound. When the primary dies, Promote makes the replica
// authoritative (salvaging the complete prefix of an unsealed segment).
type Follower struct {
	dir string
	opt FollowerOptions

	host *runtime.Host
	fs   *followerStore
	eng  *Engine
	robs *obs.ReplicaObs

	mu         sync.Mutex // serializes CatchUp/Promote/resync
	appliedSeq int64
	lastGrowth time.Time

	promoted atomic.Bool

	errMu sync.Mutex
	err   error // first tail error (Stats surfaces it)
}

// NewFollower opens the log directory, reconstructs the replica slab
// (latest base + sidecar + every sealed segment), and builds the serving
// engine over it.
func NewFollower(dir string, opt FollowerOptions) (*Follower, error) {
	if opt.Engine.Index == IndexIVF {
		// The index is repaired from the primary's flush stream, which
		// never reaches a replica: its partitions would go stale unseen.
		return nil, fmt.Errorf("serve: coordinated store %T has no flush feed for the IVF index", (*followerStore)(nil))
	}
	if opt.Poll <= 0 {
		opt.Poll = 50 * time.Millisecond
	}
	deadline := time.Now().Add(opt.WaitForLog)
	var st ckpt.DirState
	for {
		var err error
		st, err = ckpt.ListDir(dir)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(opt.Poll)
	}
	f, err := os.Open(st.BasePath)
	if err != nil {
		return nil, fmt.Errorf("serve: follower: %w", err)
	}
	host, err := runtime.LoadHost(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	fl := &Follower{
		dir:        dir,
		opt:        opt,
		host:       host,
		robs:       obs.NewReplicaObs(),
		appliedSeq: st.BaseSeq,
		lastGrowth: time.Now(),
	}
	if fl.fs, err = newFollowerStore(host, fl); err != nil {
		return nil, err
	}
	if err := fl.loadMeta(st); err != nil {
		return nil, err
	}
	eng, err := NewFromStore(fl.fs, opt.Engine)
	if err != nil {
		return nil, err
	}
	fl.eng = eng
	if err := fl.CatchUp(); err != nil {
		return nil, err
	}
	return fl, nil
}

// loadMeta installs a base's sidecar vectors (safe steps + versions)
// into the replica store. Base 0 has no sidecar: everything starts at
// the -1/"nothing guaranteed beyond init" floor, which matches a slab
// nothing has been flushed to.
func (f *Follower) loadMeta(st ckpt.DirState) error {
	if st.MetaPath == "" {
		return nil
	}
	m, err := ckpt.ReadMeta(st.MetaPath, f.host.Rows())
	if err != nil {
		return err
	}
	for k := range m.SafeStep {
		f.fs.safe[k].Store(m.SafeStep[k])
		f.host.SetVersion(uint64(k), m.Versions[k])
	}
	f.fs.advanceWM(m.Watermark)
	return nil
}

// Engine returns the serving engine over the replica slab.
func (f *Follower) Engine() *Engine { return f.eng }

// Role reports "follower", or "primary" after promotion.
func (f *Follower) Role() string {
	if f.promoted.Load() {
		return "primary"
	}
	return "follower"
}

// Run tails the log until ctx is done: every Poll interval it applies
// newly sealed segments, and — when PromoteAfter is set — promotes
// itself once the log stops growing for that long. Tail errors are
// retried next tick and surfaced via Stats.
func (f *Follower) Run(ctx context.Context) error {
	t := time.NewTicker(f.opt.Poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			if f.promoted.Load() {
				return nil
			}
			if err := f.CatchUp(); err != nil {
				f.setErr(err)
				continue
			}
			if f.opt.PromoteAfter > 0 {
				f.mu.Lock()
				idle := time.Since(f.lastGrowth)
				f.mu.Unlock()
				if idle >= f.opt.PromoteAfter {
					return f.Promote()
				}
			}
		}
	}
}

// CatchUp applies every sealed segment the replica has not seen. If the
// primary compacted past the replica's position, the replica resyncs
// from the newer base first. Safe to call concurrently (serialized
// internally); the read path calls it when a bounded read overruns its
// bound.
func (f *Follower) CatchUp() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.catchUpLocked()
}

func (f *Follower) catchUpLocked() error {
	err := f.tryCatchUp()
	if err != nil {
		// The primary's compactor may have deleted a segment between our
		// ListDir and the read. The re-list sees the post-compaction
		// state (a newer base), which the resync path handles.
		err = f.tryCatchUp()
	}
	return err
}

func (f *Follower) tryCatchUp() error {
	st, err := ckpt.ListDir(f.dir)
	if err != nil {
		return err
	}
	if st.BaseSeq > f.appliedSeq {
		if err := f.resyncLocked(st); err != nil {
			return err
		}
	}
	for _, seg := range st.Segments {
		if seg.Seq <= f.appliedSeq {
			continue
		}
		var n int64
		segWM, err := ckpt.ReadSegment(seg.Path, f.host.Rows(), f.host.Dim(), func(rec *ckpt.Record) error {
			f.fs.apply(rec)
			n++
			return nil
		})
		if err != nil {
			return err
		}
		f.fs.advanceWM(segWM)
		f.appliedSeq = seg.Seq
		f.robs.Segment(n)
		f.lastGrowth = time.Now()
	}
	return nil
}

// resyncLocked reloads the replica from a newer base: the slab is folded
// in through the same last-writer-wins apply path the segments use (the
// engine keeps serving off the one host throughout), and the sidecar
// restores the per-row vectors.
func (f *Follower) resyncLocked(st ckpt.DirState) error {
	bf, err := os.Open(st.BasePath)
	if err != nil {
		return fmt.Errorf("serve: follower resync: %w", err)
	}
	fresh, err := runtime.LoadHost(bf)
	bf.Close()
	if err != nil {
		return err
	}
	if fresh.Rows() != f.host.Rows() || fresh.Dim() != f.host.Dim() {
		return fmt.Errorf("serve: follower resync: base shape %dx%d, replica %dx%d",
			fresh.Rows(), fresh.Dim(), f.host.Rows(), f.host.Dim())
	}
	var m ckpt.Meta
	if st.MetaPath != "" {
		if m, err = ckpt.ReadMeta(st.MetaPath, f.host.Rows()); err != nil {
			return err
		}
	}
	img := runtime.RowImage{Row: make([]float32, f.host.Dim()), Q: make([]int8, f.host.Dim())}
	for k := int64(0); k < f.host.Rows(); k++ {
		// CaptureRow carries the fresh base's tier tag along with the row
		// image, so a tiered replica folds the resync in without
		// reshuffling (or requantizing) its own hot pool row by row.
		fresh.CaptureRow(uint64(k), &img)
		var ver uint64
		var safe int64 = -1
		if m.Versions != nil {
			ver, safe = m.Versions[k], m.SafeStep[k]
		}
		f.fs.apply(&ckpt.Record{
			Key: uint64(k), Version: ver, SafeStep: safe,
			State: img.State, Row: img.Row,
			Cold: img.Cold, Scale: img.Scale, Zero: img.Zero, Q: img.Q,
		})
	}
	f.fs.advanceWM(m.Watermark)
	f.appliedSeq = st.BaseSeq
	f.robs.Resync()
	f.lastGrowth = time.Now()
	return nil
}

// Promote makes the replica authoritative: apply everything sealed,
// salvage the complete record prefix of an unsealed segment if the
// primary died mid-sweep, and flip the role. From then on reads are
// served at staleness 0 against the promoted watermark — the replica's
// copy defines the history (updates the log never captured are lost,
// the standard async-replication failover trade).
func (f *Follower) Promote() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted.Load() {
		return nil
	}
	if err := f.catchUpLocked(); err != nil {
		return err
	}
	st, err := ckpt.ListDir(f.dir)
	if err == nil && st.OpenPath != "" {
		n, serr := ckpt.Salvage(st.OpenPath, f.host.Rows(), f.host.Dim(), func(rec *ckpt.Record) error {
			f.fs.apply(rec)
			return nil
		})
		if serr != nil {
			return serr
		}
		f.robs.Salvage(n)
	}
	f.promoted.Store(true)
	return nil
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

// FollowerStats reports the replica's replication state.
type FollowerStats struct {
	Role             string              `json:"role"`
	AppliedSeq       int64               `json:"appliedSeq"`
	AppliedWatermark int64               `json:"appliedWatermark"`
	Replication      obs.ReplicaSnapshot `json:"replication"`
	TailError        string              `json:"tailError,omitempty"`
}

// Stats snapshots the replica state.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	seq := f.appliedSeq
	f.mu.Unlock()
	s := FollowerStats{
		Role:             f.Role(),
		AppliedSeq:       seq,
		AppliedWatermark: f.fs.Watermark(),
		Replication:      f.robs.Snapshot(),
	}
	f.errMu.Lock()
	if f.err != nil {
		s.TailError = f.err.Error()
	}
	f.errMu.Unlock()
	return s
}

// followerStore is the replica slab as a store.Store: a LocalStore over
// the replica host, whose reads, top-K and slab access it inherits,
// overriding only where a replica differs — its consistency surface and
// its read-only writes. The watermark is the tag of the last applied
// segment; per-key staleness is watermark − the key's recorded safe
// step. Both are one-sided: the slab can only be fresher than reported.
type followerStore struct {
	*store.LocalStore
	fl   *Follower
	safe []atomic.Int64 // per-key safe step (-1: nothing beyond the base guaranteed)
	wm   atomic.Int64
}

func newFollowerStore(host *runtime.Host, fl *Follower) (*followerStore, error) {
	ls, err := store.NewLocal(host, nil)
	if err != nil {
		return nil, err
	}
	fs := &followerStore{LocalStore: ls, fl: fl, safe: make([]atomic.Int64, host.Rows())}
	for i := range fs.safe {
		fs.safe[i].Store(-1)
	}
	fs.wm.Store(-1)
	return fs, nil
}

// apply installs one row image (idempotent, last-writer-wins — see
// Host.RestoreRow) and raises the key's safe step. Tier-tagged records
// land in their tier: a cold image's codes install verbatim, so the
// replica's cold tier stays byte-identical to the primary's.
func (fs *followerStore) apply(rec *ckpt.Record) {
	img := rec.Image()
	fs.Host().RestoreRow(rec.Key, &img)
	for {
		cur := fs.safe[rec.Key].Load()
		if rec.SafeStep <= cur || fs.safe[rec.Key].CompareAndSwap(cur, rec.SafeStep) {
			return
		}
	}
}

func (fs *followerStore) advanceWM(wm int64) {
	for {
		cur := fs.wm.Load()
		if wm <= cur || fs.wm.CompareAndSwap(cur, wm) {
			return
		}
	}
}

func (fs *followerStore) Coordinated() bool { return true }

func (fs *followerStore) Scatter(int64, []store.KeyDelta) error {
	return fmt.Errorf("serve: follower replicas are read-only")
}

func (fs *followerStore) Watermark() int64 { return fs.wm.Load() }

// RowStaleness reports the replication lag: how many gate steps the
// replica's copy of key may trail the applied watermark. A promoted
// replica is authoritative — staleness 0 by definition (its copy IS the
// history).
func (fs *followerStore) RowStaleness(key uint64) (lag, watermark int64, err error) {
	if key >= uint64(fs.Rows()) {
		return 0, 0, fmt.Errorf("serve: key %d out of range (rows %d)", key, fs.Rows())
	}
	wm := fs.wm.Load()
	if fs.fl.promoted.Load() {
		return 0, wm, nil
	}
	lag = wm - fs.safe[key].Load()
	if lag < 0 {
		lag = 0
	}
	return lag, wm, nil
}

// FlushKey cannot make a replica row fresh — only the primary can drain
// a pending write set. The engine's resolver catches the log up instead
// and never calls it; external Store users get the honest error (or a
// trivial success after promotion, when nothing can be pending).
func (fs *followerStore) FlushKey(key uint64) (bool, error) {
	if fs.fl.promoted.Load() {
		return false, nil
	}
	lag, wm, err := fs.RowStaleness(key)
	if err != nil {
		return false, err
	}
	if lag == 0 {
		return false, nil
	}
	return false, &ErrReplica{Key: key, Staleness: lag, Watermark: wm}
}

// CatchUp implements the engine's replica surface: apply everything the
// log has sealed.
func (fs *followerStore) CatchUp() error { return fs.fl.CatchUp() }

// ReplicaStats implements the healthz replica block.
func (fs *followerStore) ReplicaStats() FollowerStats { return fs.fl.Stats() }
