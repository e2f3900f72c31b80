package pq

import "testing"

// TestProcessBatchZeroAlloc pins the flusher dequeue path: ProcessBatch
// visits entries in place in both queue implementations — no dequeue-batch
// buffer, no per-visit boxing — so a flush cycle's only allocations happen
// on the enqueue side. The assert is exact: any regression means a scratch
// buffer crept back into the drain path.
func TestProcessBatchZeroAlloc(t *testing.T) {
	const (
		batch   = 64
		runs    = 20
		entries = (runs + 2) * batch // AllocsPerRun adds one untimed call
	)
	queues := map[string]func() Queue{
		"twolevel": func() Queue {
			q, err := NewTwoLevelPQ(TwoLevelOptions{Window: entries})
			if err != nil {
				t.Fatal(err)
			}
			return q
		},
		"treeheap": func() Queue { return NewTreeHeap(entries) },
	}
	for name, mk := range queues {
		t.Run(name, func(t *testing.T) {
			q := mk()
			for i := 0; i < entries; i++ {
				g := NewGEntry(uint64(i))
				g.AddRead(int64(i))
				g.AddWriteState(int64(i), nil, 0)
				g.Priority = g.ComputePriority()
				g.InQueue = true
				q.Enqueue(g, g.Priority)
			}
			claim := func(g *GEntry, slotPriority int64) bool {
				if !g.InQueue || g.Priority != slotPriority {
					return false
				}
				g.InQueue = false
				return true
			}
			got := testing.AllocsPerRun(runs, func() {
				if n := q.ProcessBatch(batch, claim); n == 0 {
					t.Fatal("queue drained before the measurement finished")
				}
			})
			if got != 0 {
				t.Fatalf("ProcessBatch allocates %v times per call, want 0", got)
			}
		})
	}
}
