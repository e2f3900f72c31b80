package store

import (
	"context"
	"fmt"
	"sync"
	"time"

	"frugal/internal/comm"
)

// ShardedStore composes N stores behind the single Store interface. Rows
// are routed by comm.Owner consistent hashing over the global key; batch
// operations bucket their keys per shard and fan out one request per
// shard concurrently. The per-shard P²F watermarks compose into a global
// gate as the minimum over shards — the one-sided-safe direction: the
// composed watermark never claims a step committed that some shard has
// not committed, so a bounded(k) read can only be fresher than the
// (lag, watermark) pair implies, never staler.
type ShardedStore struct {
	shards      []Store
	rows        int64
	dim         int
	coordinated bool

	// Watermark cache: querying N shards per read is too expensive on the
	// lookup hot path, so the composed minimum is cached for wmCacheTTL.
	// Serving an older (smaller) watermark is safe for the same one-sided
	// reason as the min composition itself.
	wmMu sync.Mutex
	wmAt time.Time
	wm   int64

	// fanouts recycles the per-call working set of the batched fan-outs
	// — a trainer gathering and flushing every step would otherwise
	// allocate per-shard buckets and shard-sized row batches on each call.
	fanouts sync.Pool // *fanout
}

// fanout is one batched call's per-shard working set: the keys (or
// updates) routed to each shard with their positions in the caller's
// slices, each shard's private row and version buffers, and its error.
type fanout struct {
	keys   [][]uint64
	pos    [][]int
	upd    [][]KeyDelta
	buf    [][]float32
	vers   [][]uint64
	active []bool
	errs   []error
	wg     sync.WaitGroup
}

// getFanout returns an emptied working set sized for the shard count.
func (s *ShardedStore) getFanout() *fanout {
	f, _ := s.fanouts.Get().(*fanout)
	n := len(s.shards)
	if f == nil {
		f = &fanout{
			keys: make([][]uint64, n), pos: make([][]int, n), upd: make([][]KeyDelta, n),
			buf: make([][]float32, n), vers: make([][]uint64, n),
			active: make([]bool, n), errs: make([]error, n),
		}
	}
	for sh := 0; sh < n; sh++ {
		f.keys[sh], f.pos[sh], f.upd[sh] = f.keys[sh][:0], f.pos[sh][:0], f.upd[sh][:0]
		f.active[sh], f.errs[sh] = false, nil
	}
	return f
}

// putFanout pools f, dropping its references to the caller's deltas.
func (s *ShardedStore) putFanout(f *fanout) {
	for _, u := range f.upd {
		clear(u)
	}
	s.fanouts.Put(f)
}

// route buckets keys by owner, recording each key's position.
func (f *fanout) route(keys []uint64) {
	n := len(f.keys)
	for i, k := range keys {
		o := comm.Owner(k, n)
		f.keys[o] = append(f.keys[o], k)
		f.pos[o] = append(f.pos[o], i)
	}
	for sh := range f.active {
		f.active[sh] = len(f.keys[sh]) > 0
	}
}

// do runs op for every active shard concurrently — the last one on the
// calling goroutine — and returns the first error in shard order.
func (f *fanout) do(op func(sh int) error) error {
	last := -1
	for sh, a := range f.active {
		if a {
			last = sh
		}
	}
	for sh, a := range f.active {
		if !a || sh == last {
			continue
		}
		f.wg.Add(1)
		go func(sh int) {
			defer f.wg.Done()
			f.errs[sh] = op(sh)
		}(sh)
	}
	if last >= 0 {
		f.errs[last] = op(last)
	}
	f.wg.Wait()
	for _, err := range f.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// growF32 / growU64 resize a pooled buffer to n elements.
func growF32(b *[]float32, n int) []float32 {
	if cap(*b) < n {
		*b = make([]float32, n)
	}
	return (*b)[:n]
}

func growU64(b *[]uint64, n int) []uint64 {
	if cap(*b) < n {
		*b = make([]uint64, n)
	}
	return (*b)[:n]
}

// wmCacheTTL bounds how stale the cached composed watermark may be.
const wmCacheTTL = 2 * time.Millisecond

// NewSharded composes the given stores. Every shard must report the same
// global Rows/Dim (each shard is addressed by global key and knows the
// full key space) and agree on coordination.
func NewSharded(shards []Store) (*ShardedStore, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("store: sharded store needs at least one shard")
	}
	rows, dim, coord := shards[0].Rows(), shards[0].Dim(), shards[0].Coordinated()
	for i, sh := range shards[1:] {
		if sh.Rows() != rows || sh.Dim() != dim {
			return nil, fmt.Errorf("store: shard %d reports %d×%d, shard 0 reports %d×%d",
				i+1, sh.Rows(), sh.Dim(), rows, dim)
		}
		if sh.Coordinated() != coord {
			return nil, fmt.Errorf("store: shard %d coordination disagrees with shard 0", i+1)
		}
	}
	return &ShardedStore{shards: shards, rows: rows, dim: dim, coordinated: coord, wm: -1}, nil
}

// NumShards returns the shard count.
func (s *ShardedStore) NumShards() int { return len(s.shards) }

// owner routes a global key to its shard.
func (s *ShardedStore) owner(key uint64) Store {
	return s.shards[comm.Owner(key, len(s.shards))]
}

// Rows returns the global table height.
func (s *ShardedStore) Rows() int64 { return s.rows }

// Dim returns the embedding dimension.
func (s *ShardedStore) Dim() int { return s.dim }

// Coordinated reports whether the shards run P²F gates.
func (s *ShardedStore) Coordinated() bool { return s.coordinated }

// ReadRow routes the read to the owning shard.
func (s *ShardedStore) ReadRow(key uint64, dst []float32) (uint64, error) {
	if key >= uint64(s.rows) {
		return 0, keyRangeError(key, s.rows)
	}
	return s.owner(key).ReadRow(key, dst)
}

// Gather buckets keys by owner and fans out one batched Gather per shard.
// Each shard gathers into a private contiguous buffer, then
// scatter-copies rows back to their original positions in dst — the
// positions are disjoint across shards, so the copies race with nothing.
func (s *ShardedStore) Gather(keys []uint64, dst []float32, versions []uint64) error {
	if len(dst) != len(keys)*s.dim {
		return fmt.Errorf("store: gather dst %d floats, want %d", len(dst), len(keys)*s.dim)
	}
	if versions != nil && len(versions) != len(keys) {
		return fmt.Errorf("store: gather versions %d, want %d", len(versions), len(keys))
	}
	if err := s.checkKeys(keys); err != nil {
		return err
	}
	f := s.getFanout()
	defer s.putFanout(f)
	f.route(keys)
	return f.do(func(sh int) error {
		ks, pos := f.keys[sh], f.pos[sh]
		buf := growF32(&f.buf[sh], len(ks)*s.dim)
		vers := growU64(&f.vers[sh], len(ks))
		if err := s.shards[sh].Gather(ks, buf, vers); err != nil {
			return err
		}
		for j, p := range pos {
			copy(dst[p*s.dim:(p+1)*s.dim], buf[j*s.dim:(j+1)*s.dim])
			if versions != nil {
				versions[p] = vers[j]
			}
		}
		return nil
	})
}

// Versions buckets keys by owner and fans out one batched Versions per
// shard.
func (s *ShardedStore) Versions(keys []uint64, out []uint64) error {
	if len(out) != len(keys) {
		return fmt.Errorf("store: versions out %d, want %d", len(out), len(keys))
	}
	if err := s.checkKeys(keys); err != nil {
		return err
	}
	f := s.getFanout()
	defer s.putFanout(f)
	f.route(keys)
	return f.do(func(sh int) error {
		vers := growU64(&f.vers[sh], len(f.keys[sh]))
		if err := s.shards[sh].Versions(f.keys[sh], vers); err != nil {
			return err
		}
		for j, p := range f.pos[sh] {
			out[p] = vers[j]
		}
		return nil
	})
}

// checkKeys rejects keys outside the global table.
func (s *ShardedStore) checkKeys(keys []uint64) error {
	for _, k := range keys {
		if k >= uint64(s.rows) {
			return keyRangeError(k, s.rows)
		}
	}
	return nil
}

// Scatter buckets the step's updates by owner and sends one batch per
// shard. A coordinated store also sends an empty batch to every shard
// that owns none of the touched keys: its watermark only advances when
// every configured trainer commits the step, so the empty Scatter is the
// pure commit signal without which the composed min-watermark would stall
// on whichever shard the batch happened to miss. Uncoordinated shards
// have no watermark, so they are sent nothing they do not own.
func (s *ShardedStore) Scatter(step int64, updates []KeyDelta) error {
	for _, u := range updates {
		if u.Key >= uint64(s.rows) {
			return keyRangeError(u.Key, s.rows)
		}
	}
	f := s.getFanout()
	defer s.putFanout(f)
	n := len(s.shards)
	for _, u := range updates {
		o := comm.Owner(u.Key, n)
		f.upd[o] = append(f.upd[o], u)
	}
	for sh := range f.active {
		f.active[sh] = s.coordinated || len(f.upd[sh]) > 0
	}
	return f.do(func(sh int) error { return s.shards[sh].Scatter(step, f.upd[sh]) })
}

// Version routes to the owning shard.
func (s *ShardedStore) Version(key uint64) (uint64, error) {
	if key >= uint64(s.rows) {
		return 0, keyRangeError(key, s.rows)
	}
	return s.owner(key).Version(key)
}

// Watermark returns the composed global watermark: the minimum over all
// shard watermarks, cached for wmCacheTTL. The cached value is kept
// monotone — per-shard watermarks never regress, so neither does the
// minimum, and refusing to regress keeps a slow shard response from
// un-committing steps the caller already observed.
func (s *ShardedStore) Watermark() int64 {
	s.wmMu.Lock()
	defer s.wmMu.Unlock()
	now := time.Now()
	if now.Sub(s.wmAt) < wmCacheTTL {
		return s.wm
	}
	m := s.shards[0].Watermark()
	for _, sh := range s.shards[1:] {
		if w := sh.Watermark(); w < m {
			m = w
		}
	}
	if m > s.wm {
		s.wm = m
	}
	s.wmAt = now
	return s.wm
}

// RowStaleness returns the owning shard's flush lag against the composed
// global watermark. The composed watermark wm_g is sampled at t1 before
// the owner measures its lag against its own wm_o at t2 > t1. The owner
// reports that the row holds every step ≤ wm_o(t2) − lag, and
// wm_g(t1) ≤ wm_o(t1) ≤ wm_o(t2), so the row holds every step
// ≤ wm_g(t1) − lag too: the pair is one-sided safe. Sampled the other
// way round, a commit landing between the two reads could lift wm_g past
// the wm_o the lag was measured against and overstate the row's freshness.
func (s *ShardedStore) RowStaleness(key uint64) (lag, watermark int64, err error) {
	if key >= uint64(s.rows) {
		return 0, 0, keyRangeError(key, s.rows)
	}
	wm := s.Watermark()
	lag, _, err = s.owner(key).RowStaleness(key)
	if err != nil {
		return 0, 0, err
	}
	return lag, wm, nil
}

// FlushKey routes the urgent flush to the owning shard.
func (s *ShardedStore) FlushKey(key uint64) (bool, error) {
	if key >= uint64(s.rows) {
		return false, keyRangeError(key, s.rows)
	}
	return s.owner(key).FlushKey(key)
}

// TopK fans the query out to every shard (each scans only the rows it
// owns) and merges the per-shard candidate lists into the global best k.
func (s *ShardedStore) TopK(ctx context.Context, query []float32, k int) ([]ScoredRow, error) {
	if len(query) != s.dim {
		return nil, fmt.Errorf("store: query length %d, want dim %d", len(query), s.dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("store: k must be ≥ 1, got %d", k)
	}
	n := len(s.shards)
	results := make([][]ScoredRow, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for sh := 0; sh < n; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			results[sh], errs[sh] = s.shards[sh].TopK(ctx, query, k)
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var best []ScoredRow
	for _, rs := range results {
		for _, r := range rs {
			best = KeepBest(best, k, r, rowRank)
		}
	}
	SortBest(best, rowRank)
	return best, nil
}

// Close closes every shard and returns the first error.
func (s *ShardedStore) Close() error {
	var first error
	for _, sh := range s.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
