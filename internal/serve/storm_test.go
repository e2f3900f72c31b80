package serve_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frugal/internal/p2f"
	"frugal/internal/pq"
	"frugal/internal/runtime"
	"frugal/internal/serve"
)

// stepSource feeds `steps` batches, each updating the one hot key.
type stepSource struct {
	mu    sync.Mutex
	hot   uint64
	steps int
	next  int
}

func (s *stepSource) Next() ([]uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.steps {
		return nil, false
	}
	s.next++
	return []uint64{s.hot}, true
}

// TestRefreshStormCoalesces is the refresh-storm scenario of the overload
// layer: G readers at fresh/bounded(0) hammer one hot key while training
// commits an update to it every step. Two properties must hold at once:
//
//  1. Coalescing: the hot key's sink flushes stay bounded by the commit
//     count (≪ the read count) and CoalescedFlushes proves readers
//     actually piggybacked on each other's flushes rather than each
//     driving their own.
//  2. Consistency: every read still satisfies the PR-4 staleness
//     inequality version ≥ G·(watermark+1−staleness) with G = 1 trainer —
//     coalescing must not trade freshness for throughput.
func TestRefreshStormCoalesces(t *testing.T) {
	const (
		hot     = uint64(9)
		steps   = 200
		readers = 8
	)
	host, err := runtime.NewHost(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	var hotFlushes atomic.Int64
	sink := p2f.FlushSinkFunc(func(sets []pq.WriteSet) {
		for _, ws := range sets {
			if ws.Key == hot {
				hotFlushes.Add(1)
				// Stretch the flush so concurrent refreshers overlap it — the
				// window the singleflight layer exists for.
				time.Sleep(200 * time.Microsecond)
			}
			host.ApplyUpdates(ws.Key, ws.Updates)
		}
	})
	ctrl, err := p2f.NewController(p2f.Options{
		MaxStep: steps, FlushThreads: 2, Lookahead: 4,
		Sink: sink, Source: &stepSource{hot: hot, steps: steps},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	defer ctrl.Stop()
	eng, err := serve.New(host, ctrl, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var hotReads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dst := make([]float32, 4)
			lvl := serve.Fresh()
			if r%2 == 1 {
				lvl = serve.Bounded(0)
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				meta, err := lookupMeta(eng, hot, dst, lvl)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				hotReads.Add(1)
				if meta.Staleness != 0 {
					t.Errorf("reader %d: %v read staleness %d, want 0", r, lvl, meta.Staleness)
					return
				}
				if floor := meta.Watermark + 1 - meta.Staleness; floor > 0 && meta.Version < uint64(floor) {
					t.Errorf("reader %d: version %d < wm %d + 1 − lag %d: staler than admitted",
						r, meta.Version, meta.Watermark, meta.Staleness)
					return
				}
			}
		}(r)
	}

	// The training loop: gate → commit, one hot-key update per step.
	for {
		b, ok := ctrl.NextBatch()
		if !ok {
			break
		}
		ctrl.WaitForStep(b.Step)
		upd := make([]p2f.KeyDelta, len(b.Keys))
		for i, k := range b.Keys {
			upd[i] = p2f.KeyDelta{Key: k, Delta: []float32{1, 0, 0, 0}}
		}
		ctrl.CommitStep(b.Step, upd)
	}
	ctrl.DrainAll()
	close(done)
	wg.Wait()

	reads, flushes := hotReads.Load(), hotFlushes.Load()
	if reads == 0 {
		t.Fatal("no reads recorded")
	}
	// Each commit creates at most one flushable write set, so a working
	// singleflight keeps flushes bounded by commits no matter how many
	// readers demand freshness. Without coalescing this test's read rate
	// would demand far more.
	if flushes > steps {
		t.Fatalf("hot key flushed %d times for %d commits — refresh storm not coalesced", flushes, steps)
	}
	if reads < 4*flushes {
		t.Fatalf("reads (%d) not ≫ flushes (%d): the storm never formed, test is vacuous", reads, flushes)
	}
	if co := ctrl.Stats().CoalescedFlushes; co == 0 {
		t.Fatal("CoalescedFlushes = 0: no reader ever piggybacked")
	}
	// Post-drain, the hot row carries every committed update.
	dst := make([]float32, 4)
	meta, err := lookupMeta(eng, hot, dst, serve.Fresh())
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != steps {
		t.Fatalf("post-run version = %d, want %d", meta.Version, steps)
	}
	if dst[0] != steps {
		t.Fatalf("post-run value = %v, want %d (a coalesced flush lost updates)", dst[0], steps)
	}
}
