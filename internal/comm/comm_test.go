package comm

import "testing"

func TestOwnerBalanced(t *testing.T) {
	const n = 8
	counts := make([]int, n)
	for k := uint64(0); k < 80000; k++ {
		o := Owner(k, n)
		if o < 0 || o >= n {
			t.Fatalf("Owner(%d) = %d out of range", k, o)
		}
		counts[o]++
	}
	for r, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("rank %d owns %d of 80000 keys — imbalanced", r, c)
		}
	}
}

func TestOwnerDeterministic(t *testing.T) {
	for k := uint64(0); k < 100; k++ {
		if Owner(k, 4) != Owner(k, 4) {
			t.Fatal("Owner must be deterministic")
		}
	}
}

func TestOwnerPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Owner(1, 0)
}
