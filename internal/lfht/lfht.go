// Package lfht implements the lock-free hash table used as the second
// level of Frugal's two-level priority queue (§3.4). Each priority slot of
// the queue owns one table holding the g-entries that currently carry that
// priority; enqueue inserts here, adjustPriority moves entries between two
// tables, and the flusher threads drain entries concurrently.
//
// The paper builds on a write-optimized dynamic hash table (FAST '19 [34]).
// This implementation keeps the properties that matter for the P²F
// algorithm — lock-free inserts/deletes/drains with O(1) expected cost and
// no central point of contention — using a segmented design: a fixed
// directory of 2^k segments (sized from a capacity hint), each an atomic
// singly linked list with logical deletion. Capacity is dynamic because the
// lists grow and shrink with the population; the directory spreads
// contention so that concurrent operations on different keys rarely touch
// the same cache line. Nodes are claimed from a chain of arena chunks (one
// heap allocation per chunkNodes inserts). A node is never recycled while
// the table is in use; Reset recycles the whole table — its directory and
// every chunk — once its owner has proved that no operation can still
// reach it (see chunk).
//
// The directory is sized up front instead of being resized online: every
// table in Frugal knows its population bound when it is built, and a
// lock-free resize would put a migration protocol under the consistency
// gate for no gain. The g-entry directory (internal/p2f) is sized from the
// key space it serves (≈ keys/4 segments, so a lookup walks one or two
// nodes). Every slot table of the two-level queue (internal/pq) is
// reusable: a finite slot holds at most one step's keys and gets a small
// table, recycled step after step; the ∞ slot, which holds all deferred
// work, gets a large one, reset in place each time it drains.
package lfht

import (
	"math/bits"
	"sync/atomic"
)

// node is one key/value cell. A node is logically deleted by CAS-ing
// state from live to dead; physical unlinking happens opportunistically
// during later traversals. Values are immutable once inserted (the P²F
// controller mutates the *GEntry a value points to, never the mapping).
type node[V any] struct {
	key   uint64
	val   V
	next  atomic.Pointer[node[V]]
	state atomic.Int32 // 0 = live, 1 = logically deleted
}

func (n *node[V]) live() bool { return n.state.Load() == 0 }

// kill logically deletes the node; reports whether this caller won the race.
func (n *node[V]) kill() bool { return n.state.CompareAndSwap(0, 1) }

// chunkNodes is the arena granularity: one heap allocation per chunkNodes
// node claims instead of one per insert.
const chunkNodes = 256

// chunk is an append-only node arena block. Claiming is a single atomic
// increment; a node is never returned to a free list while the table is
// live — a logically deleted node may still be traversed by a concurrent
// reader, so reusing it would reintroduce the ABA/lost-entry hazards that
// safe memory reclamation exists to solve (out of scope per DESIGN.md
// §5d). A map built by NewReusable links each chunk to the next and holds
// the first, so the chain stays alive for Reset to hand back; the chain
// stops growing at the map's keep limit. Chunks claimed past it, and every
// chunk of any other map, are held only while they are the current chunk,
// and the GC collects one once no segment links a node in it.
type chunk[V any] struct {
	next  atomic.Uint32
	succ  atomic.Pointer[chunk[V]] // the chunk claimed after this one (NewReusable)
	nodes [chunkNodes]node[V]
}

// newNode claims a zeroed node from the current arena chunk. When the
// chunk is exhausted, a reusable map moves to the chunk's successor while
// its chain is within the keep limit; past it, and in any other map, a
// fresh unlinked chunk is published. Lock-free: a claim is one fetch-add;
// losing the publish CAS still yields a valid node (slot 0 of the loser's
// private chunk — slightly wasteful, never wrong).
func (m *Map[V]) newNode() *node[V] {
	for {
		c := m.arena.Load()
		if c != nil {
			if i := c.next.Add(1); i <= chunkNodes {
				return &c.nodes[i-1]
			}
		}
		if m.keep > 0 && m.advance(c) {
			continue
		}
		fresh := &chunk[V]{}
		fresh.next.Store(1)
		m.arena.CompareAndSwap(c, fresh)
		return &fresh.nodes[0]
	}
}

// advance moves a reusable map's arena past the exhausted chunk c (nil
// before the first claim) to the next chunk of the chain — one kept by
// Reset, or a fresh one appended with one CAS that every racing claimer
// then follows. It reports false, moving nothing, when c ends a chain
// that already holds keep chunks (or is an unlinked chunk claimed past
// it): the caller then claims from an unlinked chunk.
func (m *Map[V]) advance(c *chunk[V]) bool {
	if c == nil {
		if m.first.CompareAndSwap(nil, &chunk[V]{}) {
			m.kept.Store(1)
		}
		m.arena.CompareAndSwap(nil, m.first.Load())
		return true
	}
	nxt := c.succ.Load()
	if nxt == nil {
		if m.kept.Load() >= m.keep {
			return false
		}
		if c.succ.CompareAndSwap(nil, &chunk[V]{}) {
			m.kept.Add(1)
		}
		nxt = c.succ.Load()
	}
	m.arena.CompareAndSwap(c, nxt)
	return true
}

// Map is a concurrent hash map from uint64 keys to values of type V.
// The zero value is not usable; construct with NewWithHint or NewReusable.
type Map[V any] struct {
	segments []atomic.Pointer[node[V]]
	mask     uint64
	count    atomic.Int64
	cursor   atomic.Uint64            // rotating start segment, so drains spread out
	arena    atomic.Pointer[chunk[V]] // the chunk nodes are claimed from
	// A map built by NewReusable keeps a chain of up to keep chunks (0 for
	// any other map); first is its head and kept its length.
	keep  int32
	kept  atomic.Int32
	first atomic.Pointer[chunk[V]]
}

// NewWithHint returns an empty map sized for roughly `hint` resident
// entries (directory of ~hint/4 segments, clamped to [16, 1<<18], rounded
// up to a power of two).
func NewWithHint[V any](hint int) *Map[V] {
	segs := hint / 4
	if segs < 16 {
		segs = 16
	}
	if segs > 1<<18 {
		segs = 1 << 18
	}
	segs = 1 << bits.Len(uint(segs-1)) // next power of two
	return &Map[V]{
		segments: make([]atomic.Pointer[node[V]], segs),
		mask:     uint64(segs - 1),
	}
}

// NewReusable is NewWithHint for a table that is filled, drained and
// Reset over and over: it keeps the arena chunks it claims, so Reset can
// hand them back and a refill allocates nothing. It keeps at most
// max(16, 4·hint/chunkNodes) chunks — four times the hinted population,
// in nodes. A fill past that claims unlinked chunks, as a NewWithHint
// map does, so a map that is seldom or never reset holds at most that
// many chunks more than a NewWithHint map would.
func NewReusable[V any](hint int) *Map[V] {
	m := NewWithHint[V](hint)
	m.keep = int32(max(16, min(4*hint, 1<<24)/chunkNodes))
	return m
}

// hash mixes the key (fibonacci hashing) so sequential embedding keys
// spread across segments.
func hash(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k
}

func (m *Map[V]) segment(key uint64) *atomic.Pointer[node[V]] {
	return &m.segments[hash(key)&m.mask]
}

// Insert adds key→val. If a live node with the same key already exists the
// insert still succeeds (the table is a multiset over keys); the P²F layer
// guarantees one live mapping per key per table. Lock-free: a single CAS
// at the segment head.
func (m *Map[V]) Insert(key uint64, val V) {
	n := m.newNode()
	n.key, n.val = key, val
	head := m.segment(key)
	for {
		old := head.Load()
		n.next.Store(old)
		if head.CompareAndSwap(old, n) {
			m.count.Add(1)
			return
		}
	}
}

// GetOrInsert returns the value mapped to key, creating it with mk when
// absent. The second result reports whether the value already existed.
// Lock-free: inserts happen only at a segment head, so a successful CAS on
// an unchanged head proves no concurrent insert of the same key slipped in.
// mk is called at most once per call: its value rides the unpublished node
// across CAS retries, and is discarded only when a concurrent insert of the
// same key wins.
func (m *Map[V]) GetOrInsert(key uint64, mk func() V) (V, bool) {
	head := m.segment(key)
	var n *node[V] // claimed lazily, reused across CAS retries (unpublished)
	for {
		top := head.Load()
		for c := top; c != nil; c = c.next.Load() {
			if c.key == key && c.live() {
				return c.val, true
			}
		}
		if n == nil {
			n = m.newNode()
			n.key, n.val = key, mk()
		}
		n.next.Store(top)
		if head.CompareAndSwap(top, n) {
			m.count.Add(1)
			return n.val, false
		}
	}
}

// Get returns the value of the first live node with the given key.
func (m *Map[V]) Get(key uint64) (V, bool) {
	for n := m.segment(key).Load(); n != nil; n = n.next.Load() {
		if n.key == key && n.live() {
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Delete logically removes one live node with the given key and reports
// whether a node was removed.
func (m *Map[V]) Delete(key uint64) bool {
	head := m.segment(key)
	for n := head.Load(); n != nil; n = n.next.Load() {
		if n.key == key && n.kill() {
			m.count.Add(-1)
			m.unlink(head)
			return true
		}
	}
	return false
}

// unlink opportunistically removes a prefix of dead nodes from a segment.
// Only head-prefix unlinking is attempted: it needs a single CAS and keeps
// the traversal wait-free for readers.
func (m *Map[V]) unlink(head *atomic.Pointer[node[V]]) {
	for {
		first := head.Load()
		if first == nil || first.live() {
			return
		}
		next := first.next.Load()
		if !head.CompareAndSwap(first, next) {
			return // someone else is maintaining this segment
		}
	}
}

// DrainN visits up to max live entries, invoking fn on each BEFORE the
// node is removed, then kills the node (exactly once across concurrent
// callers; the count reflects only successful kills). The visit-then-kill
// order is what keeps an entry visible to observers until fn has finished
// with it — the property Frugal's consistency gate relies on. Concurrent
// callers may invoke fn twice for one node; fn must be idempotent.
func (m *Map[V]) DrainN(max int, fn func(key uint64, val V)) int {
	if max <= 0 || m.count.Load() == 0 {
		return 0
	}
	segs := uint64(len(m.segments))
	start := m.cursor.Add(1)
	done := 0
	for i := uint64(0); i < segs && done < max; i++ {
		head := &m.segments[(start+i)&m.mask]
		for n := head.Load(); n != nil && done < max; n = n.next.Load() {
			if !n.live() {
				continue
			}
			fn(n.key, n.val)
			if n.kill() {
				m.count.Add(-1)
				done++
			}
		}
		m.unlink(head)
	}
	return done
}

// Segments returns the size of the directory. No production path needs
// it: it is the tests' observation hook into table sizing (the p2f
// directory's key-space hint, the priority queue's slot tables).
func (m *Map[V]) Segments() int { return len(m.segments) }

// Len returns the number of live entries (exact in quiescence, approximate
// under concurrency).
func (m *Map[V]) Len() int { return int(m.count.Load()) }

// Empty reports whether the table holds no live entries.
func (m *Map[V]) Empty() bool { return m.count.Load() == 0 }

// Reset empties the map for reuse: the directory is cleared and, for a
// map built by NewReusable, every chunk of its chain is zeroed and handed
// back to newNode, so a table that is filled and drained over and over
// allocates nothing after its first fill. A map that has claimed no node
// since it was built or last reset is left as it is. The caller must
// guarantee that no other goroutine operates on the map, and that none
// can still hold a node of it, while Reset runs.
func (m *Map[V]) Reset() {
	if a := m.arena.Load(); a == nil || a == m.first.Load() && a.next.Load() == 0 {
		return
	}
	clear(m.segments)
	for c := m.first.Load(); c != nil; c = c.succ.Load() {
		clear(c.nodes[:min(c.next.Load(), chunkNodes)])
		c.next.Store(0)
	}
	m.arena.Store(m.first.Load())
	m.count.Store(0)
}
