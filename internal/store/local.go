package store

import (
	"context"
	"fmt"

	"frugal/internal/p2f"
	"frugal/internal/runtime"
	"frugal/internal/tensor"
)

// LocalStore is the in-process Store: a host-memory slab, optionally
// coordinated by a live P²F controller. Every method is a thin wrapper
// over the Host/Controller primitives the serving layer used to call
// directly — the single-machine fast path costs one interface dispatch
// and nothing else (no allocation, no copy beyond the row itself).
type LocalStore struct {
	host *runtime.Host
	ctrl *p2f.Controller // nil: uncoordinated (write-through or static slab)
}

// NewLocal wraps a host slab (and its controller, nil for uncoordinated
// engines and loaded checkpoints) as a Store.
func NewLocal(host *runtime.Host, ctrl *p2f.Controller) (*LocalStore, error) {
	if host == nil {
		return nil, fmt.Errorf("store: nil host")
	}
	return &LocalStore{host: host, ctrl: ctrl}, nil
}

// Host exposes the underlying slab. The serving engine uses it for the
// bulk-scan fast paths (batched MulVec, IVF build/repair) that only a
// local contiguous slab supports.
func (s *LocalStore) Host() *runtime.Host { return s.host }

// Controller exposes the attached P²F controller (nil when
// uncoordinated).
func (s *LocalStore) Controller() *p2f.Controller { return s.ctrl }

// Rows returns the table height.
func (s *LocalStore) Rows() int64 { return s.host.Rows() }

// Dim returns the embedding dimension.
func (s *LocalStore) Dim() int { return s.host.Dim() }

// Coordinated reports whether a P²F controller is attached.
func (s *LocalStore) Coordinated() bool { return s.ctrl != nil }

// ReadRow copies row key into dst under its stripe lock.
func (s *LocalStore) ReadRow(key uint64, dst []float32) (uint64, error) {
	if key >= uint64(s.host.Rows()) {
		return 0, keyRangeError(key, s.host.Rows())
	}
	return s.host.ReadRow(key, dst), nil
}

// Gather reads len(keys) rows into dst, each under its stripe lock.
func (s *LocalStore) Gather(keys []uint64, dst []float32, versions []uint64) error {
	d := s.host.Dim()
	if len(dst) != len(keys)*d {
		return fmt.Errorf("store: gather dst %d floats, want %d", len(dst), len(keys)*d)
	}
	if versions != nil && len(versions) != len(keys) {
		return fmt.Errorf("store: gather versions %d, want %d", len(versions), len(keys))
	}
	for i, k := range keys {
		if k >= uint64(s.host.Rows()) {
			return keyRangeError(k, s.host.Rows())
		}
		v := s.host.ReadRow(k, dst[i*d:(i+1)*d])
		if versions != nil {
			versions[i] = v
		}
	}
	return nil
}

// Versions reads each key's update counter.
func (s *LocalStore) Versions(keys []uint64, out []uint64) error {
	if len(out) != len(keys) {
		return fmt.Errorf("store: versions out %d, want %d", len(out), len(keys))
	}
	for i, k := range keys {
		if k >= uint64(s.host.Rows()) {
			return keyRangeError(k, s.host.Rows())
		}
		out[i] = s.host.Version(k)
	}
	return nil
}

// Scatter commits one step's updates: through the controller's P²F
// commit path when coordinated (the write sets drain asynchronously and
// the watermark advances), straight onto the slab otherwise.
func (s *LocalStore) Scatter(step int64, updates []KeyDelta) error {
	for _, u := range updates {
		if u.Key >= uint64(s.host.Rows()) {
			return keyRangeError(u.Key, s.host.Rows())
		}
	}
	if s.ctrl == nil {
		for _, u := range updates {
			s.host.ApplyDelta(u.Key, u.Delta, u.StateDelta)
		}
		return nil
	}
	kd := make([]p2f.KeyDelta, len(updates))
	for i, u := range updates {
		kd[i] = p2f.KeyDelta{Key: u.Key, Delta: u.Delta, StateDelta: u.StateDelta}
	}
	s.ctrl.CommitStep(step, kd)
	return nil
}

// Watermark returns the controller's committed-step watermark (-1 when
// uncoordinated).
func (s *LocalStore) Watermark() int64 {
	if s.ctrl == nil {
		return -1
	}
	return s.ctrl.Watermark()
}

// RowStaleness reports the key's flush lag against the watermark.
func (s *LocalStore) RowStaleness(key uint64) (lag, watermark int64, err error) {
	if key >= uint64(s.host.Rows()) {
		return 0, 0, keyRangeError(key, s.host.Rows())
	}
	if s.ctrl == nil {
		return 0, -1, nil
	}
	lag, watermark = s.ctrl.RowStaleness(key)
	return lag, watermark, nil
}

// FlushKey drains the key's pending write set (singleflight-coalesced).
func (s *LocalStore) FlushKey(key uint64) (bool, error) {
	if key >= uint64(s.host.Rows()) {
		return false, keyRangeError(key, s.host.Rows())
	}
	if s.ctrl == nil {
		return false, nil
	}
	return s.ctrl.FlushKeyShared(key), nil
}

// AddFlushHook registers an index-maintenance hook on the controller.
// No-op when uncoordinated (nothing ever flushes).
func (s *LocalStore) AddFlushHook(fn func(key uint64)) {
	if s.ctrl != nil {
		s.ctrl.AddFlushHook(fn)
	}
}

// localTopKChunk strides the scan so no stripe lock is held across more
// than one row (mirrors the serving engine's chunk size).
const localTopKChunk = 256

// TopK scans every row under its stripe lock and returns the k best by
// dot product (ties broken toward the smaller key), each winner re-read
// for an exact (version, score) pair.
func (s *LocalStore) TopK(ctx context.Context, query []float32, k int) ([]ScoredRow, error) {
	return SlabTopK(ctx, s.host, query, k, nil)
}

// SlabTopK is the shared slab-scan selection used by LocalStore and the
// shard node: score every row chunk by chunk under its stripe lock, keep
// the k best, then re-read each winner under its lock for an honest
// version+score pair. keyOf maps slab indices to global keys (nil =
// identity, for unsharded slabs); it must be increasing, as a shard's
// key map is, so that ties between slab indices break as they would
// between global keys.
func SlabTopK(ctx context.Context, host *runtime.Host, query []float32, k int,
	keyOf func(local int64) uint64) ([]ScoredRow, error) {

	if len(query) != host.Dim() {
		return nil, fmt.Errorf("store: query length %d, want dim %d", len(query), host.Dim())
	}
	rows := host.Rows()
	if k < 1 {
		return nil, fmt.Errorf("store: k must be ≥ 1, got %d", k)
	}
	if int64(k) > rows {
		k = int(rows)
	}
	scores := make([]float32, localTopKChunk)
	heap := make([]ScoredRow, 0, k) // keyed by slab index until the re-read
	for from := int64(0); from < rows; from += localTopKChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := rows - from
		if n > localTopKChunk {
			n = localTopKChunk
		}
		sc := scores[:n]
		host.ScoreRowsLocked(query, from, sc)
		for i, v := range sc {
			if len(heap) < k || v >= heap[0].Score {
				heap = KeepBest(heap, k, ScoredRow{Key: uint64(from) + uint64(i), Score: v}, rowRank)
			}
		}
	}
	// Winners: re-read under the row lock so score and version agree.
	row := make([]float32, host.Dim())
	for i := range heap {
		r := &heap[i]
		r.Version = host.ReadRow(r.Key, row)
		r.Score = tensor.Dot(query, row)
		if keyOf != nil {
			r.Key = keyOf(int64(r.Key))
		}
	}
	SortBest(heap, rowRank)
	return heap, nil
}

func rowRank(r ScoredRow) (float32, uint64) { return r.Score, r.Key }

// KeepBest offers x to h, a min-heap of at most k rows with the worst
// kept row at h[0], and returns the heap. rank reports a row's score and
// key; rows rank by descending score, ties toward the smaller key, so
// the kept set does not depend on the order rows are offered in. This is
// the one k-best selector of every top-K path — the serving engine's
// flat and IVF scans, SlabTopK and the sharded merge. h's backing array
// is the caller's, so a reused scratch heap keeps a scan allocation-free.
// A scan skips the call for a row scoring strictly below h[0] once the
// heap is full: such a row can never be kept, and the skip is most of a
// scan's rows.
func KeepBest[T any](h []T, k int, x T, rank func(T) (float32, uint64)) []T {
	if len(h) < k {
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if !worse(h[i], h[p], rank) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		return h
	}
	if len(h) == 0 || !worse(h[0], x, rank) {
		return h
	}
	h[0] = x
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && worse(h[l], h[m], rank) {
			m = l
		}
		if r < len(h) && worse(h[r], h[m], rank) {
			m = r
		}
		if m == i {
			return h
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// SortBest orders xs best first in KeepBest's rank. Insertion sort: xs
// is a k-sized result, and dodging sort.Slice's reflection keeps ~1.5µs
// off a hot path measured in tens of µs.
func SortBest[T any](xs []T, rank func(T) (float32, uint64)) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for ; j >= 0 && worse(xs[j], x, rank); j-- {
			xs[j+1] = xs[j]
		}
		xs[j+1] = x
	}
}

// worse reports whether a ranks below b: a lower score, or the same
// score on a larger key.
func worse[T any](a, b T, rank func(T) (float32, uint64)) bool {
	as, ak := rank(a)
	bs, bk := rank(b)
	if as != bs {
		return as < bs
	}
	return ak > bk
}

// Close is a no-op: the slab belongs to the training job or checkpoint
// loader that created it.
func (s *LocalStore) Close() error { return nil }
