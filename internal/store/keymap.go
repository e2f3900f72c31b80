package store

import (
	"fmt"

	"frugal/internal/comm"
)

// KeyMap is the dense placement of one shard's owned keys: global key k
// is owned by shard comm.Owner(k, of), and owned keys pack into local
// slab indices 0..Owned()-1 in ascending global-key order. Both
// directions are precomputed — the forward map costs 8 bytes per global
// row, which buys branch-free O(1) routing on the gather/scatter path.
type KeyMap struct {
	shard, of  int
	globalRows int64
	toLocal    []int64  // global key → local index, -1 when not owned
	toGlobal   []uint64 // local index → global key
}

// NewKeyMap enumerates the placement for shard `shard` of `of`.
func NewKeyMap(globalRows int64, shard, of int) (*KeyMap, error) {
	if of <= 0 {
		return nil, fmt.Errorf("store: shard count must be positive, got %d", of)
	}
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("store: shard index %d out of range for %d shards", shard, of)
	}
	if globalRows <= 0 {
		return nil, fmt.Errorf("store: global rows must be positive, got %d", globalRows)
	}
	m := &KeyMap{
		shard:      shard,
		of:         of,
		globalRows: globalRows,
		toLocal:    make([]int64, globalRows),
	}
	for k := int64(0); k < globalRows; k++ {
		if comm.Owner(uint64(k), of) == shard {
			m.toLocal[k] = int64(len(m.toGlobal))
			m.toGlobal = append(m.toGlobal, uint64(k))
		} else {
			m.toLocal[k] = -1
		}
	}
	return m, nil
}

// Shard returns this shard's index.
func (m *KeyMap) Shard() int { return m.shard }

// Of returns the total shard count.
func (m *KeyMap) Of() int { return m.of }

// GlobalRows returns the global table height.
func (m *KeyMap) GlobalRows() int64 { return m.globalRows }

// Owned returns how many rows this shard holds.
func (m *KeyMap) Owned() int64 { return int64(len(m.toGlobal)) }

// Local maps a global key to its local slab index; ok=false when the key
// is out of range or owned by another shard.
func (m *KeyMap) Local(key uint64) (int64, bool) {
	if key >= uint64(m.globalRows) {
		return 0, false
	}
	l := m.toLocal[key]
	return l, l >= 0
}

// Global maps a local slab index back to its global key.
func (m *KeyMap) Global(local int64) uint64 { return m.toGlobal[local] }

// notLocalError says why Local refused key: out of the global range, or
// owned by another shard.
func (m *KeyMap) notLocalError(key uint64) error {
	if key >= uint64(m.globalRows) {
		return fmt.Errorf("shard %d/%d: key %d out of range (rows %d)", m.shard, m.of, key, m.globalRows)
	}
	return fmt.Errorf("shard %d/%d: key %d not owned here", m.shard, m.of, key)
}
