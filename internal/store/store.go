// Package store defines the parameter-store abstraction the serving
// engine and the distributed training path program against: one narrow
// interface over the row-read/write/version/watermark surface that
// internal/runtime.Host plus the P²F controller expose in-process.
//
// Three implementations exist:
//
//   - LocalStore (this package): the in-process host slab, optionally
//     coordinated by a live P²F controller. Every method is a thin
//     zero-allocation wrapper — the single-machine fast path is
//     preserved verbatim.
//   - shard.RemoteStore (internal/shard): a client speaking a compact
//     length-prefixed binary protocol over TCP to a frugal-shard node
//     that owns one consistent-hash shard of the table.
//   - ShardedStore (this package): N stores composed behind the same
//     interface — gather/scatter fan out with per-shard batching, and
//     the per-shard P²F watermarks compose into a global consistency
//     gate (global watermark = min over shards), so the serving layer's
//     stale/bounded(k)/fresh semantics survive the wire unchanged.
//
// Row addressing is always by global key; sharded implementations route
// by comm.Owner (consistent hashing) internally.
package store

import (
	"context"
	"fmt"
)

// KeyDelta is one parameter update bound for a store: the row delta plus
// the optimizer-state increment (0 under plain SGD). Scatter takes
// ownership of the Delta buffer — a coordinated local store retains it in
// the key's pending write set until a flusher drains it, so callers must
// not reuse the slice after the call.
type KeyDelta struct {
	Key        uint64
	Delta      []float32
	StateDelta float32
}

// ScoredRow is one top-K candidate returned by Store.TopK: the global
// key, its dot-product score, and the row version the score was computed
// against (read in the same critical section as the scoring copy).
type ScoredRow struct {
	Key     uint64
	Score   float32
	Version uint64
}

// Store is the parameter-store surface. All methods are safe for
// concurrent use. Reads and writes address rows by global key in
// [0, Rows()). Versions travel in batches only (Versions, Gather); a
// single row's version comes back with its ReadRow.
type Store interface {
	// Rows is the global table height (the key space).
	Rows() int64
	// Dim is the embedding dimension.
	Dim() int
	// Coordinated reports whether a P²F gate (and therefore a meaningful
	// watermark/staleness surface) is attached. Uncoordinated stores
	// apply writes at commit time, so every read is trivially fresh.
	Coordinated() bool

	// ReadRow copies row key into dst (len == Dim()) and returns the row
	// version observed with the copy.
	ReadRow(key uint64, dst []float32) (uint64, error)
	// Gather batch-reads len(keys) rows into dst (len == len(keys)·Dim()),
	// row i at dst[i·Dim() : (i+1)·Dim()]. versions, when non-nil (len ==
	// len(keys)), receives each row's version. Sharded implementations
	// bucket the keys per shard and fan out one batched request per shard.
	Gather(keys []uint64, dst []float32, versions []uint64) error
	// Versions writes the version of row keys[i] to out[i] (len(out) ==
	// len(keys)) without shipping the rows — a cache validating its
	// copies needs only this. Sharded implementations fan out one batched
	// request per shard.
	Versions(keys []uint64, out []uint64) error
	// Scatter stages the updates of training step `step`. A coordinated
	// store routes them through its P²F commit path (the watermark
	// advances once every configured trainer has scattered the step — an
	// empty updates slice is a pure commit signal); an uncoordinated
	// store applies them to the slab immediately.
	Scatter(step int64, updates []KeyDelta) error

	// Watermark returns the committed-step watermark: every trainer has
	// committed all steps ≤ the returned value (-1 before the first
	// commit, and always -1 on uncoordinated stores). Composed stores
	// return the minimum over their shards, which is the one-sided-safe
	// direction: a row can only be fresher than the composed value
	// implies, never staler.
	Watermark() int64
	// RowStaleness reports how many gate steps the stored copy of key may
	// lag the returned watermark (see p2f.Controller.RowStaleness for the
	// one-sided guarantee).
	RowStaleness(key uint64) (lag, watermark int64, err error)
	// FlushKey synchronously drains the key's pending write set so the
	// stored row reflects every committed update; reports whether
	// anything was flushed. Implementations coalesce concurrent flushes
	// of one hot key (singleflight).
	FlushKey(key uint64) (bool, error)

	// TopK returns the k rows with the highest dot-product similarity to
	// query, best first. Scores and versions reflect live row state (each
	// winner read under its row lock). Sharded implementations scan every
	// shard's owned rows in parallel and merge.
	TopK(ctx context.Context, query []float32, k int) ([]ScoredRow, error)

	// Close releases the store's resources (network connections, pools).
	// The underlying slab of a LocalStore is not affected.
	Close() error
}

// FlushHooker is the optional index-maintenance feed: stores that can
// report every flushed key (local and per-shard stores) implement it so
// derived structures (the serving IVF index) can bound their staleness.
type FlushHooker interface {
	AddFlushHook(fn func(key uint64))
}

// ShardCounter is implemented by composed stores that know their shard
// topology (the serving layer reports it on /healthz).
type ShardCounter interface {
	NumShards() int
}

// ShardUnavailableError reports a shard RPC that could not complete: the
// connection failed, the node is down, or the protocol broke mid-frame.
// The serving layer maps it to HTTP 503 with code "shard_unavailable".
type ShardUnavailableError struct {
	Addr string // the shard's address ("" for in-process stores)
	Err  error
}

func (e *ShardUnavailableError) Error() string {
	if e.Addr == "" {
		return fmt.Sprintf("store: shard unavailable: %v", e.Err)
	}
	return fmt.Sprintf("store: shard %s unavailable: %v", e.Addr, e.Err)
}

// Unwrap exposes the transport error to errors.Is/As.
func (e *ShardUnavailableError) Unwrap() error { return e.Err }

// keyRangeError builds the canonical out-of-range error.
func keyRangeError(key uint64, rows int64) error {
	return fmt.Errorf("store: key %d out of range (rows %d)", key, rows)
}
