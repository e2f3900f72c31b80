package p2f

import (
	"sync"
	"testing"

	"frugal/internal/data"
	"frugal/internal/pq"
)

// The BenchmarkCommitStep workload: 256-key zipf-0.99 batches over a
// 1M-key space, the regime of the end-to-end skew workload.
const (
	benchKeys     = 1 << 20
	benchBatch    = 256
	benchResident = 300_000 // distinct keys in the directory before timing
	benchBatches  = 4096    // trace length; the timed loop cycles over it
	benchLook     = 10      // the default lookahead L
)

var benchTrace struct {
	once     sync.Once
	resident []uint64   // distinct keys in first-draw order
	batches  [][]uint64 // the timed trace
}

// commitStepTrace draws the benchmark's keys once per process. The
// resident keys keep their first-draw order, so hot keys are inserted
// first and sit at the tails of the directory's chains, as in training.
func commitStepTrace() ([]uint64, [][]uint64) {
	benchTrace.once.Do(func() {
		gen, err := data.NewGen(data.DistZipf099, 1, benchKeys)
		if err != nil {
			panic(err)
		}
		seen := make(map[uint64]bool, benchResident)
		for len(benchTrace.resident) < benchResident {
			if k := gen.Next(); !seen[k] {
				seen[k] = true
				benchTrace.resident = append(benchTrace.resident, k)
			}
		}
		benchTrace.batches = make([][]uint64, benchBatches)
		for i := range benchTrace.batches {
			batch := make([]uint64, benchBatch)
			for j := range batch {
				batch[j] = gen.Next()
			}
			benchTrace.batches[i] = batch
		}
	})
	return benchTrace.resident, benchTrace.batches
}

// BenchmarkCommitStep measures one training step of P²F bookkeeping on
// a single trainer: register the reads of the batch L steps ahead, pass
// the gate, commit the step's updates, and drain what they queued
// through a no-op sink (the flusher pool's work, done inline so the write
// sets stay bounded). Its cost is dominated by g-entry lookups in the
// directory and by the slot-table drains.
func BenchmarkCommitStep(b *testing.B) {
	resident, batches := commitStepTrace()
	c, err := NewController(Options{
		MaxStep:   int64(b.N + benchLook),
		KeySpace:  benchKeys,
		Lookahead: benchLook,
		Sink:      FlushSinkFunc(func([]pq.WriteSet) {}),
		Source:    &sliceSource{},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range resident {
		c.dir.GetOrInsert(k, func() *pq.GEntry { return pq.NewGEntry(k) })
	}
	batch := func(s int) []uint64 { return batches[s%len(batches)] }
	for s := 0; s < benchLook; s++ {
		c.registerReads(int64(s), batch(s))
	}
	delta := []float32{1}
	upd := make([]KeyDelta, benchBatch)
	b.ReportAllocs()
	b.ResetTimer()
	for s := 0; s < b.N; s++ {
		c.registerReads(int64(s+benchLook), batch(s+benchLook))
		c.WaitForStep(int64(s))
		for i, k := range batch(s) {
			upd[i] = KeyDelta{Key: k, Delta: delta}
		}
		c.CommitStep(int64(s), upd)
		c.DrainAll()
	}
}
