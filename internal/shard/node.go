// Package shard implements the distributed side of the parameter store:
// a shard node that owns one consistent-hash partition of the embedding
// table (a key-mapped store.LocalStore over a compact host slab, with
// its own P²F controller), a TCP server speaking a length-prefixed
// binary protocol, RemoteStore, the client that presents a remote node
// through the store.Store interface, and DialSharded, which composes a
// cluster of them.
package shard

import (
	"fmt"
	"math"

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
	// Uncoordinated skips the P²F controller: scatters apply write-through
	// and the watermark surface degenerates (-1, trivially fresh reads).
	Uncoordinated bool
	// Init fills owned rows at construction, addressed by GLOBAL key so
	// every shard of one table initialises identically (nil = zeros).
	Init func(key uint64, row []float32)
}

// Node is one shard of the parameter table: a key-mapped LocalStore
// over a compact host slab holding only the owned rows, plus this
// shard's own P²F controller. It implements store.Store addressed by
// GLOBAL key — the same interface the coordinator composes and the TCP
// server exports — so local tests can exercise a node without the wire
// in between. What the node adds to the store is its placement and its
// controller's lifecycle.
type Node struct {
	*store.LocalStore
	km   *store.KeyMap
	ctrl *p2f.Controller // nil when uncoordinated
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
	km, err := store.NewKeyMap(opt.Rows, opt.Shard, opt.Of)
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
	var ctrl *p2f.Controller
	if !opt.Uncoordinated {
		if ctrl, err = newNodeController(opt, km, host); err != nil {
			return nil, err
		}
	}
	ls, err := store.NewMapped(host, ctrl, km)
	if err != nil {
		return nil, err
	}
	if ctrl != nil {
		ctrl.Start()
	}
	return &Node{LocalStore: ls, km: km, ctrl: ctrl}, nil
}

// newNodeController builds the shard's P²F controller. Its directory is
// keyed by global key, so the flush sink remaps each set onto the compact
// slab; unowned keys cannot reach it, because Scatter validates
// ownership.
func newNodeController(opt NodeOptions, km *store.KeyMap, host *runtime.Host) (*p2f.Controller, error) {
	flushers := opt.Flushers
	if flushers <= 0 {
		flushers = 4
	}
	return p2f.NewController(p2f.Options{
		MaxStep:      math.MaxInt64, // no trace: the prefetch loop ends at once
		KeySpace:     km.Owned(),
		FlushThreads: flushers,
		Trainers:     opt.Trainers,
		Source:       emptyTrace{},
		Sink: p2f.FlushSinkFunc(func(sets []pq.WriteSet) {
			for _, ws := range sets {
				if local, ok := km.Local(ws.Key); ok {
					host.ApplyUpdates(uint64(local), ws.Updates)
				}
			}
		}),
	})
}

// KeyMap exposes the node's placement (server Info, tests).
func (n *Node) KeyMap() *store.KeyMap { return n.km }

// Close drains pending flushes and stops the controller.
func (n *Node) Close() error {
	if n.ctrl != nil {
		n.ctrl.DrainAll()
		n.ctrl.Stop()
	}
	return nil
}
