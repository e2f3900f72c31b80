package shard

import (
	"context"
	"fmt"

	"frugal/internal/p2f"
	"frugal/internal/pq"
	"frugal/internal/runtime"
	"frugal/internal/store"
)

// NodeOptions configures one shard node.
type NodeOptions struct {
	// Rows is the GLOBAL table height; the node allocates only the rows
	// its shard owns. Required.
	Rows int64
	// Dim is the embedding dimension. Required.
	Dim int
	// Shard/Of place this node in the consistent-hash topology (shard
	// index in [0, Of)). Of defaults to 1.
	Shard, Of int
	// Flushers is the node's P²F flusher-pool size (default 4).
	Flushers int
	// Trainers is how many trainer clients scatter each step; the node's
	// watermark advances once all of them have committed it (default 1).
	Trainers int
	// MaxStep sizes the priority queue; Scatter rejects steps ≥ MaxStep
	// (default 1<<16).
	MaxStep int64
	// Uncoordinated skips the P²F controller: scatters apply write-through
	// and the watermark surface degenerates (-1, trivially fresh reads).
	Uncoordinated bool
	// Init fills owned rows at construction, addressed by GLOBAL key so
	// every shard of one table initialises identically (nil = zeros).
	Init func(key uint64, row []float32)
}

// Node is one shard of the parameter table: a compact host slab holding
// only the owned rows plus this shard's own P²F controller. It
// implements store.Store addressed by GLOBAL key — the same interface
// the coordinator composes and the TCP server exports — so local tests
// can exercise a node without the wire in between.
type Node struct {
	km   *KeyMap
	host *runtime.Host
	ctrl *p2f.Controller // nil when uncoordinated
	max  int64
}

// emptyTrace is the node controller's TraceSource: a shard node has no
// batch trace of its own (prefetch priorities come from trainer-side
// traces, which never reach the store tier), so the prefetch loop exits
// immediately and every pending write set sits at +Inf priority — pure
// deferred flushing, drained continuously by the flusher pool.
type emptyTrace struct{}

func (emptyTrace) Next() ([]uint64, bool) { return nil, false }

// NewNode builds the shard's key map, its compact slab, and (unless
// Uncoordinated) its controller, and starts the flusher pool.
func NewNode(opt NodeOptions) (*Node, error) {
	if opt.Of <= 0 {
		opt.Of = 1
	}
	km, err := NewKeyMap(opt.Rows, opt.Shard, opt.Of)
	if err != nil {
		return nil, err
	}
	if opt.Dim <= 0 {
		return nil, fmt.Errorf("shard: dim must be positive, got %d", opt.Dim)
	}
	// A shard that owns zero keys (tiny tables) still needs a non-empty
	// slab; the padding row is never read or written.
	slabRows := km.Owned()
	if slabRows == 0 {
		slabRows = 1
	}
	host, err := runtime.NewHost(slabRows, opt.Dim)
	if err != nil {
		return nil, err
	}
	if opt.Init != nil {
		host.Init(func(local uint64, row []float32) {
			if int64(local) < km.Owned() {
				opt.Init(km.Global(int64(local)), row)
			}
		})
	}
	n := &Node{km: km, host: host}
	if opt.Uncoordinated {
		return n, nil
	}
	maxStep := opt.MaxStep
	if maxStep <= 0 {
		maxStep = 1 << 16
	}
	flushers := opt.Flushers
	if flushers <= 0 {
		flushers = 4
	}
	ctrl, err := p2f.NewController(p2f.Options{
		MaxStep:      maxStep,
		KeySpace:     km.Owned(),
		FlushThreads: flushers,
		Trainers:     opt.Trainers,
		Source:       emptyTrace{},
		// The sink remaps the directory's global key onto the compact
		// slab. Unowned keys cannot reach it: Scatter validates ownership.
		Sink: p2f.FlushSinkFunc(func(sets []pq.WriteSet) {
			for _, ws := range sets {
				if local, ok := km.Local(ws.Key); ok {
					host.ApplyUpdates(uint64(local), ws.Updates)
				}
			}
		}),
	})
	if err != nil {
		return nil, err
	}
	ctrl.Start()
	n.ctrl = ctrl
	n.max = maxStep
	return n, nil
}

// KeyMap exposes the node's placement (server Info, tests).
func (n *Node) KeyMap() *KeyMap { return n.km }

// Host exposes the compact slab (tests).
func (n *Node) Host() *runtime.Host { return n.host }

// Rows returns the GLOBAL table height.
func (n *Node) Rows() int64 { return n.km.GlobalRows() }

// Dim returns the embedding dimension.
func (n *Node) Dim() int { return n.host.Dim() }

// Coordinated reports whether the node runs a P²F gate.
func (n *Node) Coordinated() bool { return n.ctrl != nil }

// local resolves a global key to the owned slab index.
func (n *Node) local(key uint64) (int64, error) {
	local, ok := n.km.Local(key)
	if !ok {
		if key >= uint64(n.km.GlobalRows()) {
			return 0, fmt.Errorf("shard %d/%d: key %d out of range (rows %d)",
				n.km.Shard(), n.km.Of(), key, n.km.GlobalRows())
		}
		return 0, fmt.Errorf("shard %d/%d: key %d not owned here", n.km.Shard(), n.km.Of(), key)
	}
	return local, nil
}

// ReadRow reads an owned row by global key.
func (n *Node) ReadRow(key uint64, dst []float32) (uint64, error) {
	local, err := n.local(key)
	if err != nil {
		return 0, err
	}
	return n.host.ReadRow(uint64(local), dst), nil
}

// Gather batch-reads owned rows by global key.
func (n *Node) Gather(keys []uint64, dst []float32, versions []uint64) error {
	d := n.host.Dim()
	if len(dst) != len(keys)*d {
		return fmt.Errorf("shard: gather dst %d floats, want %d", len(dst), len(keys)*d)
	}
	if versions != nil && len(versions) != len(keys) {
		return fmt.Errorf("shard: gather versions %d, want %d", len(versions), len(keys))
	}
	for i, k := range keys {
		local, err := n.local(k)
		if err != nil {
			return err
		}
		v := n.host.ReadRow(uint64(local), dst[i*d:(i+1)*d])
		if versions != nil {
			versions[i] = v
		}
	}
	return nil
}

// Versions reads owned rows' update counters by global key.
func (n *Node) Versions(keys []uint64, out []uint64) error {
	if len(out) != len(keys) {
		return fmt.Errorf("shard: versions out %d, want %d", len(out), len(keys))
	}
	for i, k := range keys {
		local, err := n.local(k)
		if err != nil {
			return err
		}
		out[i] = n.host.Version(uint64(local))
	}
	return nil
}

// Scatter commits one step's updates for this shard. Every key must be
// owned here. An empty updates slice is the pure commit signal that lets
// the shard's watermark advance on steps whose batch missed it.
func (n *Node) Scatter(step int64, updates []KeyDelta) error {
	return n.scatter(step, updates)
}

// KeyDelta aliases store.KeyDelta so the package reads naturally.
type KeyDelta = store.KeyDelta

func (n *Node) scatter(step int64, updates []KeyDelta) error {
	if n.ctrl != nil && step >= n.max {
		return fmt.Errorf("shard: step %d ≥ MaxStep %d", step, n.max)
	}
	locals := make([]int64, len(updates))
	for i, u := range updates {
		local, err := n.local(u.Key)
		if err != nil {
			return err
		}
		if len(u.Delta) != n.host.Dim() {
			return fmt.Errorf("shard: delta length %d, want dim %d", len(u.Delta), n.host.Dim())
		}
		locals[i] = local
	}
	if n.ctrl == nil {
		for i, u := range updates {
			n.host.ApplyDelta(uint64(locals[i]), u.Delta, u.StateDelta)
		}
		return nil
	}
	kd := make([]p2f.KeyDelta, len(updates))
	for i, u := range updates {
		// The directory is keyed by GLOBAL key (staleness probes and flush
		// hooks speak global keys); the sink remaps to the slab.
		kd[i] = p2f.KeyDelta{Key: u.Key, Delta: u.Delta, StateDelta: u.StateDelta}
	}
	n.ctrl.CommitStep(step, kd)
	return nil
}

// Watermark returns this shard's committed-step watermark.
func (n *Node) Watermark() int64 {
	if n.ctrl == nil {
		return -1
	}
	return n.ctrl.Watermark()
}

// RowStaleness reports an owned key's flush lag against this shard's
// watermark.
func (n *Node) RowStaleness(key uint64) (lag, watermark int64, err error) {
	if _, err := n.local(key); err != nil {
		return 0, 0, err
	}
	if n.ctrl == nil {
		return 0, -1, nil
	}
	lag, watermark = n.ctrl.RowStaleness(key)
	return lag, watermark, nil
}

// FlushKey drains an owned key's pending write set.
func (n *Node) FlushKey(key uint64) (bool, error) {
	if _, err := n.local(key); err != nil {
		return false, err
	}
	if n.ctrl == nil {
		return false, nil
	}
	return n.ctrl.FlushKeyShared(key), nil
}

// AddFlushHook registers an index-maintenance hook; hooks receive GLOBAL
// keys.
func (n *Node) AddFlushHook(fn func(key uint64)) {
	if n.ctrl != nil {
		n.ctrl.AddFlushHook(fn)
	}
}

// TopK scans only the rows this shard owns and returns the best k by dot
// product, keyed globally.
func (n *Node) TopK(ctx context.Context, query []float32, k int) ([]store.ScoredRow, error) {
	if n.km.Owned() == 0 {
		return nil, nil
	}
	return store.SlabTopK(ctx, n.host, query, k, n.km.Global)
}

// Close drains pending flushes and stops the controller.
func (n *Node) Close() error {
	if n.ctrl != nil {
		n.ctrl.DrainAll()
		n.ctrl.Stop()
	}
	return nil
}
