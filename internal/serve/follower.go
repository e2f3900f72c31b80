package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"frugal/internal/ckpt"
	"frugal/internal/obs"
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
// (internal/ckpt): a ckpt.Replica replays the log into its own host
// memory, and a standard Engine serves it, with the replica's staleness
// as the consistency gate's bound. The follower adds the role, the tail
// loop and promotion: when the primary dies, Promote makes the replica
// authoritative (salvaging the complete prefix of an unsealed segment).
type Follower struct {
	opt FollowerOptions

	rep *ckpt.Replica
	eng *Engine

	mu         sync.Mutex // serializes CatchUp/Promote
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
	fl := &Follower{opt: opt, lastGrowth: time.Now()}
	for {
		var err error
		fl.rep, err = ckpt.OpenReplica(dir)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(opt.Poll)
	}
	ls, err := store.NewLocal(fl.rep.Host(), nil)
	if err != nil {
		return nil, err
	}
	if fl.eng, err = NewFromStore(&followerStore{LocalStore: ls, fl: fl}, opt.Engine); err != nil {
		return nil, err
	}
	if err := fl.CatchUp(); err != nil {
		return nil, err
	}
	return fl, nil
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
	seq := f.rep.Seq()
	err := f.rep.CatchUp()
	if f.rep.Seq() != seq {
		f.lastGrowth = time.Now()
	}
	return err
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
	if err := f.rep.Salvage(); err != nil {
		return err
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
	s := FollowerStats{
		Role:             f.Role(),
		AppliedSeq:       f.rep.Seq(),
		AppliedWatermark: f.rep.Watermark(),
		Replication:      f.rep.Replication(),
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
// its read-only writes. The watermark and per-key staleness are the
// replica's; both are one-sided: the slab can only be fresher than
// reported.
type followerStore struct {
	*store.LocalStore
	fl *Follower
}

func (fs *followerStore) Coordinated() bool { return true }

func (fs *followerStore) Scatter(int64, []store.KeyDelta) error {
	return fmt.Errorf("serve: follower replicas are read-only")
}

func (fs *followerStore) Watermark() int64 { return fs.fl.rep.Watermark() }

// RowStaleness reports the replication lag: how many gate steps the
// replica's copy of key may trail the applied watermark. A promoted
// replica is authoritative — staleness 0 by definition (its copy IS the
// history).
func (fs *followerStore) RowStaleness(key uint64) (lag, watermark int64, err error) {
	if key >= uint64(fs.Rows()) {
		return 0, 0, fmt.Errorf("serve: key %d out of range (rows %d)", key, fs.Rows())
	}
	lag, watermark = fs.fl.rep.Staleness(key)
	if fs.fl.promoted.Load() {
		return 0, watermark, nil
	}
	return lag, watermark, nil
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
