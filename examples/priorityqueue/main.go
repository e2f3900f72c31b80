// Priority-queue walkthrough: reproduces the Fig 6 example of the paper
// step by step on the real P²F machinery (two-level priority queue,
// g-entries, consistency gate), printing what the controller sees. This
// example reaches into the internal packages on purpose — it is a guided
// tour of the runtime, not API advice.
package main

import (
	"fmt"
	"sync"

	"frugal/internal/p2f"
	"frugal/internal/pq"
)

// The Fig 6 trace with lookahead L=2: step 0 reads {k2, k3, k1},
// step 1 reads {k2}, step 2 reads {k1}. k3's update from step 0 is never
// read again, so P²F defers it while k2 and k1 flush urgently.
const (
	k1 = 1
	k2 = 2
	k3 = 3
)

type source struct {
	mu      sync.Mutex
	batches [][]uint64
}

func (s *source) Next() ([]uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.batches) == 0 {
		return nil, false
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, true
}

func main() {
	flushed := make(chan string, 16)
	ctrl, err := p2f.NewController(p2f.Options{
		MaxStep:      3,
		KeySpace:     k3 + 1,
		Lookahead:    2,
		FlushThreads: 1,
		Source:       &source{batches: [][]uint64{{k2, k3, k1}, {k2}, {k1}}},
		Sink: p2f.FlushSinkFunc(func(key uint64, updates []pq.Update) {
			flushed <- fmt.Sprintf("    flusher: wrote k%d to host memory (%d pending update(s))", key, len(updates))
		}),
	})
	if err != nil {
		panic(err)
	}
	ctrl.Start()
	defer ctrl.Stop()

	fmt.Println("P²F walkthrough of Fig 6 (lookahead L=2)")
	for {
		b, ok := ctrl.NextBatch()
		if !ok {
			break
		}
		fmt.Printf("step %d: batch keys %v\n", b.Step, b.Keys)
		fmt.Printf("  gate: waiting until PQ.top() > %d …\n", b.Step)
		stall := ctrl.WaitForStep(b.Step)
		drainLog(flushed)
		fmt.Printf("  gate open after %v; invariant (2) check: %v\n",
			stall.Round(1000), errString(ctrl.CheckInvariant(b.Step, b.Keys)))

		// "Train": produce one unit gradient per key read this step.
		upd := make([]p2f.KeyDelta, len(b.Keys))
		for i, k := range b.Keys {
			upd[i] = p2f.KeyDelta{Key: k, Delta: []float32{1}}
		}
		ctrl.CommitStep(b.Step, upd)
		fmt.Printf("  committed %d updates; PQ.top() is now %s\n", len(upd), top(ctrl))
	}

	fmt.Println("end of training: draining deferred updates (the k3 case)…")
	ctrl.DrainAll()
	drainLog(flushed)
	st := ctrl.Stats()
	fmt.Printf("done: %d updates flushed, %d g-entries deferred to ∞ priority, %d urgent\n",
		st.FlushedUpdates, st.DeferredFlushes, st.UrgentFlushes)
}

func drainLog(ch chan string) {
	for {
		select {
		case line := <-ch:
			fmt.Println(line)
		default:
			return
		}
	}
}

func top(c *p2f.Controller) string {
	if t := c.Queue().Top(); t != pq.Inf {
		return fmt.Sprint(t)
	}
	return "∞"
}

func errString(err error) string {
	if err == nil {
		return "OK"
	}
	return err.Error()
}
