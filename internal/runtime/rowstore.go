package runtime

import "frugal/internal/pq"

// RowStore is the slab surface the training step loop reads and writes.
// *Host is the canonical implementation (in-process host memory); an
// external implementation — e.g. an adapter over a sharded remote store —
// lets the same step loop train against a table that lives elsewhere, via
// Config.Slab.
//
// The job reads through the batch methods only: each worker-step makes
// one Versions and one GatherRows call, each prefetch fill chunk one of
// each, and every flush lands through one ApplyWriteSets call, so a
// remote implementation pays a round trip per batch rather than per row.
// The contract matches *Host exactly:
//
//   - Versions writes the version of keys[i] to out[i]. A version is
//     monotone per key and bumps by one per applied update, under the
//     row lock and after the write, so a version read before a locked
//     read never overstates the content that read returns.
//   - GatherRows reads row keys[i] into dsts[i] for every i. Locked reads
//     take the row's stripe lock; direct reads are the unlocked fast
//     path, safe only while the gate (or the step barriers) guarantees no
//     concurrent writer for the key.
//   - ApplyWriteSets applies several keys' update batches under one lock
//     acquisition per set, sets of one key in slice order, bumping the
//     version once per update. ApplyDelta adds one delta (and stateDelta
//     to the optimizer accumulator) and bumps the version once: it is the
//     write-through engines' per-key commit. Neither may retain the delta
//     slices.
//
// ReadRow (which also returns the version read under the lock),
// ReadRowDirect, ReadRowLocked and ApplyUpdates are the per-row forms of
// the same reads and writes. The job does not call them: they stay on the
// surface only for the end-to-end benchmark's timing wrapper, which
// overrides them.
type RowStore interface {
	Rows() int64
	Dim() int
	Versions(keys []uint64, out []uint64)
	GatherRows(keys []uint64, dsts [][]float32, locked bool)
	ApplyWriteSets(sets []pq.WriteSet)
	ApplyDelta(key uint64, delta []float32, stateDelta float32)
	ReadRow(key uint64, dst []float32) uint64
	ReadRowDirect(key uint64, dst []float32)
	ReadRowLocked(key uint64, dst []float32)
	ApplyUpdates(key uint64, updates []pq.Update)
}

// *Host is the canonical RowStore.
var _ RowStore = (*Host)(nil)

// GatherRows reads every keys[i] into dsts[i]: locked reads take the
// row's stripe lock, direct reads are the gate-protected fast path.
func (h *Host) GatherRows(keys []uint64, dsts [][]float32, locked bool) {
	for i, k := range keys {
		if locked {
			h.ReadRowLocked(k, dsts[i])
		} else {
			h.ReadRowDirect(k, dsts[i])
		}
	}
}

// Versions writes each key's update counter to out (len(out) ≥ len(keys)).
func (h *Host) Versions(keys []uint64, out []uint64) {
	for i, k := range keys {
		out[i] = h.versions[k].Load()
	}
}

// ApplyWriteSets applies each set's updates in slice order.
func (h *Host) ApplyWriteSets(sets []pq.WriteSet) {
	for i := range sets {
		h.ApplyUpdates(sets[i].Key, sets[i].Updates)
	}
}
