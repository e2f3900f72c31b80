package lfht

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestInsertGet(t *testing.T) {
	m := New[int]()
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
	m := New[string]()
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

func TestPopAnyDrainsAll(t *testing.T) {
	m := New[uint64]()
	const n = 1000
	for i := uint64(0); i < n; i++ {
		m.Insert(i, i*3)
	}
	seen := make(map[uint64]uint64)
	for {
		k, v, ok := m.PopAny()
		if !ok {
			break
		}
		if _, dup := seen[k]; dup {
			t.Fatalf("key %d popped twice", k)
		}
		seen[k] = v
	}
	if len(seen) != n {
		t.Fatalf("popped %d entries, want %d", len(seen), n)
	}
	for k, v := range seen {
		if v != k*3 {
			t.Fatalf("key %d has value %d, want %d", k, v, k*3)
		}
	}
}

func TestPopAnyEmpty(t *testing.T) {
	m := New[int]()
	if _, _, ok := m.PopAny(); ok {
		t.Fatal("PopAny on empty map should fail")
	}
}

func TestPopBatch(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Insert(uint64(i), i)
	}
	got := m.PopBatch(nil, 30)
	if len(got) != 30 {
		t.Fatalf("PopBatch returned %d, want 30", len(got))
	}
	if m.Len() != 70 {
		t.Fatalf("Len after batch = %d, want 70", m.Len())
	}
	rest := m.PopBatch(nil, 1000)
	if len(rest) != 70 {
		t.Fatalf("second PopBatch returned %d, want 70", len(rest))
	}
	if got = m.PopBatch(got[:0], 5); len(got) != 0 {
		t.Fatal("PopBatch on empty map should return nothing")
	}
	if got = m.PopBatch(nil, 0); len(got) != 0 {
		t.Fatal("PopBatch with max=0 should return nothing")
	}
}

func TestRange(t *testing.T) {
	m := New[int]()
	for i := 0; i < 50; i++ {
		m.Insert(uint64(i), i)
	}
	m.Delete(10)
	sum, count := 0, 0
	m.Range(func(k uint64, v int) bool {
		sum += v
		count++
		return true
	})
	if count != 49 {
		t.Fatalf("Range visited %d, want 49", count)
	}
	want := 49*50/2 - 10
	if sum != want {
		t.Fatalf("Range sum = %d, want %d", sum, want)
	}
	// Early termination.
	visited := 0
	m.Range(func(k uint64, v int) bool {
		visited++
		return false
	})
	if visited != 1 {
		t.Fatalf("early-exit Range visited %d, want 1", visited)
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
	// Concurrent poppers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, _, ok := m.PopAny(); ok {
					popped.Add(1)
					continue
				}
				select {
				case <-stop:
					// Final drain after writers finish.
					for {
						if _, _, ok := m.PopAny(); !ok {
							return
						}
						popped.Add(1)
					}
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
	m := New[int]()
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
		m := New[uint64]()
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

func BenchmarkPopAnyParallel(b *testing.B) {
	m := NewWithHint[int](b.N)
	for i := 0; i < b.N; i++ {
		m.Insert(uint64(i), i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.PopAny()
		}
	})
}

func TestGetOrInsert(t *testing.T) {
	m := New[*int]()
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
