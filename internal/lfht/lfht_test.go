package lfht

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestInsertGet(t *testing.T) {
	m := NewWithHint[int](1024)
	m.Insert(1, 10)
	m.Insert(2, 20)
	if v, ok := m.Get(1); !ok || v != 10 {
		t.Fatalf("Get(1) = %v,%v", v, ok)
	}
	if v, ok := m.Get(2); !ok || v != 20 {
		t.Fatalf("Get(2) = %v,%v", v, ok)
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("Get(3) should miss")
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestDelete(t *testing.T) {
	m := NewWithHint[string](1024)
	m.Insert(7, "x")
	if !m.Delete(7) {
		t.Fatal("Delete(7) should succeed")
	}
	if m.Delete(7) {
		t.Fatal("second Delete(7) should fail")
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("Get after delete should miss")
	}
	if !m.Empty() {
		t.Fatal("map should be empty")
	}
}

func TestNewWithHintClamps(t *testing.T) {
	small := NewWithHint[int](0)
	if len(small.segments) < 16 {
		t.Fatalf("hint 0 → %d segments, want ≥16", len(small.segments))
	}
	big := NewWithHint[int](1 << 30)
	if len(big.segments) > 1<<18 {
		t.Fatalf("huge hint → %d segments, want ≤ 2^18", len(big.segments))
	}
	// Power of two, and Segments reports the directory.
	for _, m := range []*Map[int]{small, big, NewWithHint[int](1000)} {
		if m.Segments() != len(m.segments) {
			t.Fatalf("Segments() = %d, directory has %d", m.Segments(), len(m.segments))
		}
		if n := len(m.segments); n&(n-1) != 0 {
			t.Fatalf("segment count %d is not a power of two", n)
		}
	}
}

func TestConcurrentInsertPop(t *testing.T) {
	m := NewWithHint[uint64](1 << 14)
	const (
		writers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	var popped atomic.Int64
	stop := make(chan struct{})
	// Concurrent drainers, each taking one entry per call.
	drainOne := func() bool {
		return m.DrainN(1, func(uint64, uint64) {}) > 0
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if drainOne() {
					popped.Add(1)
					continue
				}
				select {
				case <-stop:
					// Final drain after writers finish.
					for drainOne() {
						popped.Add(1)
					}
					return
				default:
				}
			}
		}()
	}
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < perW; i++ {
				m.Insert(uint64(w*perW+i), uint64(i))
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	if got := popped.Load(); got != writers*perW {
		t.Fatalf("popped %d entries, want %d", got, writers*perW)
	}
	if !m.Empty() {
		t.Fatalf("map should be drained, Len=%d", m.Len())
	}
}

func TestConcurrentDeleteExactlyOnce(t *testing.T) {
	m := NewWithHint[int](1024)
	const n = 500
	for i := 0; i < n; i++ {
		m.Insert(uint64(i), i)
	}
	var deleted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if m.Delete(uint64(i)) {
					deleted.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if got := deleted.Load(); got != n {
		t.Fatalf("deleted %d times, want exactly %d", got, n)
	}
}

// Property: a random interleaving of inserts and deletes leaves exactly the
// keys that were inserted and not deleted.
func TestInsertDeleteProperty(t *testing.T) {
	f := func(keys []uint64, deletes []uint64) bool {
		m := NewWithHint[uint64](1024)
		want := make(map[uint64]bool)
		for _, k := range keys {
			if !want[k] { // the table is used with unique live keys per P²F
				m.Insert(k, k+1)
				want[k] = true
			}
		}
		for _, d := range deletes {
			if want[d] {
				if !m.Delete(d) {
					return false
				}
				delete(want, d)
			} else if m.Delete(d) && !want[d] {
				return false
			}
		}
		if m.Len() != len(want) {
			return false
		}
		for k := range want {
			if v, ok := m.Get(k); !ok || v != k+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	m := NewWithHint[int](b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(uint64(i), i)
	}
}

func BenchmarkInsertParallel(b *testing.B) {
	m := NewWithHint[int](b.N)
	var ctr atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Insert(ctr.Add(1), 1)
		}
	})
}

func TestGetOrInsert(t *testing.T) {
	m := NewWithHint[*int](1024)
	mk := func() *int { v := 42; return &v }
	v1, loaded := m.GetOrInsert(5, mk)
	if loaded || *v1 != 42 {
		t.Fatalf("first GetOrInsert = (%v,%v)", *v1, loaded)
	}
	v2, loaded := m.GetOrInsert(5, func() *int { v := 99; return &v })
	if !loaded || v2 != v1 {
		t.Fatal("second GetOrInsert must return the existing value")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestGetOrInsertConcurrentSingleWinner(t *testing.T) {
	m := NewWithHint[*int](1 << 12)
	const keys = 200
	var wg sync.WaitGroup
	results := make([][]*int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]*int, keys)
			for k := 0; k < keys; k++ {
				v, _ := m.GetOrInsert(uint64(k), func() *int { x := k; return &x })
				results[g][k] = v
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		for g := 1; g < 8; g++ {
			if results[g][k] != results[0][k] {
				t.Fatalf("key %d: goroutines observed different values", k)
			}
		}
	}
	if m.Len() != keys {
		t.Fatalf("Len = %d, want %d", m.Len(), keys)
	}
}

// TestGetOrInsertConcurrentBuildsOnce pins that a GetOrInsert which loses
// head CASes to concurrent inserts into the same segment reuses the value
// it built instead of calling mk again. Eight goroutines insert distinct
// keys into a 16-segment map, and mk yields between the head load and
// the CAS, so retries are the common case.
func TestGetOrInsertConcurrentBuildsOnce(t *testing.T) {
	m := NewWithHint[*int](0)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	var over atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				calls := 0
				k := uint64(w*perWorker + i)
				m.GetOrInsert(k, func() *int {
					calls++
					runtime.Gosched()
					x := int(k)
					return &x
				})
				if calls > 1 {
					over.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := over.Load(); n > 0 {
		t.Fatalf("%d GetOrInsert calls built their value more than once", n)
	}
	if m.Len() != workers*perWorker {
		t.Fatalf("Len = %d, want %d", m.Len(), workers*perWorker)
	}
}

// TestResetEmpties fills a map past one arena chunk, resets it, and
// checks that it behaves as a fresh map: nothing is found, and a second
// population is stored and drained exactly.
func TestResetEmpties(t *testing.T) {
	m := NewReusable[int](64)
	const n = 3*chunkNodes + 7
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			m.Insert(uint64(i), i+round)
		}
		if v, ok := m.Get(5); !ok || v != 5+round {
			t.Fatalf("round %d: Get(5) = %v,%v", round, v, ok)
		}
		m.Delete(7)
		if got := m.DrainN(n, func(uint64, int) {}); got != n-1 {
			t.Fatalf("round %d: drained %d, want %d", round, got, n-1)
		}
		m.Reset()
		if !m.Empty() || m.Len() != 0 {
			t.Fatalf("round %d: Len = %d after Reset", round, m.Len())
		}
		if _, ok := m.Get(5); ok {
			t.Fatalf("round %d: Get after Reset found a node", round)
		}
	}
}

// TestResetReusesChunks pins the point of Reset: once a table has held
// its largest population, filling, draining and resetting it again
// allocates nothing — every arena chunk is reused.
func TestResetReusesChunks(t *testing.T) {
	m := NewReusable[int](64)
	const n = 2*chunkNodes + 1
	cycle := func() {
		for i := 0; i < n; i++ {
			m.Insert(uint64(i), i)
		}
		m.DrainN(n, func(uint64, int) {})
		m.Reset()
	}
	cycle()
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("fill/drain/Reset allocates %v times, want 0", got)
	}
}

// TestReusableChainBounded fills a reusable map far past its chunk limit
// without a Reset, as a table that never drains is: the chain it keeps
// for Reset stops at the limit, the nodes claimed past it stay correct,
// and after a Reset a fill that fits the kept chain allocates nothing.
func TestReusableChainBounded(t *testing.T) {
	m := NewReusable[int](64)
	chain := func() int {
		n := 0
		for c := m.first.Load(); c != nil; c = c.succ.Load() {
			n++
		}
		return n
	}
	m.Insert(1<<40, -1) // never deleted
	const n = 100 * chunkNodes
	for i := 0; i < n; i++ {
		m.Insert(uint64(i), i)
		if i%2 == 0 {
			m.Delete(uint64(i))
		}
	}
	if got := chain(); got != int(m.keep) {
		t.Fatalf("chain holds %d chunks after %d inserts, want the limit %d", got, n, m.keep)
	}
	if v, ok := m.Get(n - 1); !ok || v != n-1 {
		t.Fatalf("Get(%d) = %v,%v past the chunk limit", n-1, v, ok)
	}
	if m.Len() != n/2+1 {
		t.Fatalf("Len = %d, want %d", m.Len(), n/2+1)
	}
	fill := func() {
		for i := 0; i < int(m.keep)*chunkNodes; i++ {
			m.Insert(uint64(i), i)
		}
		m.DrainN(int(m.keep)*chunkNodes, func(uint64, int) {})
		m.Reset()
	}
	m.DrainN(n, func(uint64, int) {})
	m.Reset()
	if got := testing.AllocsPerRun(5, fill); got != 0 {
		t.Fatalf("a fill of the kept chain allocates %v times after Reset, want 0", got)
	}
}
