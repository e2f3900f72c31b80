package runtime

import "frugal/internal/pq"

// RowStore is the slab surface the training step loop reads and writes.
// *Host is the canonical implementation (in-process host memory); an
// external implementation — e.g. an adapter over a sharded remote store —
// lets the same step loop train against a table that lives elsewhere, via
// Config.Slab.
//
// The surface is batch-first: the step loop makes one Versions and one
// GatherRows call per worker-step, and each flusher batch lands through
// one ApplyWriteSets call, so a remote implementation pays a round trip
// per batch rather than per row. The per-row methods serve the
// prefetcher, urgent single-key flushes and the write-through engines'
// commits.
//
// The contract matches *Host exactly:
//
//   - ReadRowDirect is the unlocked fast read, safe only while the gate
//     (or the step barriers) guarantees no concurrent writer for the key.
//   - ReadRowLocked takes the row's lock stripe; ReadRow additionally
//     returns the row's version counter.
//   - GatherRows reads row keys[i] into dsts[i] for every i, direct or
//     locked as selected.
//   - Version is monotone per key and bumps by one per applied update;
//     Versions writes the version of keys[i] to out[i].
//   - OptState returns the row's optimizer accumulator (0 when the store
//     keeps none).
//   - ApplyDelta adds delta (and stateDelta to the accumulator) under the
//     row lock and bumps the version once; ApplyUpdates applies a batch to
//     one key under a single lock acquisition, bumping once per update;
//     ApplyWriteSets applies several keys' batches, sets of one key in
//     slice order. None may retain the delta slices.
//   - WriteRetries counts transient host-write failures retried (0 for
//     stores without fault injection).
type RowStore interface {
	Rows() int64
	Dim() int
	ReadRow(key uint64, dst []float32) uint64
	ReadRowDirect(key uint64, dst []float32)
	ReadRowLocked(key uint64, dst []float32)
	GatherRows(keys []uint64, dsts [][]float32, locked bool)
	Version(key uint64) uint64
	Versions(keys []uint64, out []uint64)
	OptState(key uint64) float32
	ApplyDelta(key uint64, delta []float32, stateDelta float32)
	ApplyUpdates(key uint64, updates []pq.Update)
	ApplyWriteSets(sets []pq.WriteSet)
	WriteRetries() int64
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
