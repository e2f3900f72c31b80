package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"frugal"
	"frugal/internal/pq"
)

// span is one timed call into the program: the public entry point it
// wraps, its start and end relative to the tracer's origin, the span
// that caused it (0: none) and the request it belongs to (0: none).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

// newID reserves a span id (a parent's id is needed before it ends).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span under id (0 allocates one).
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.ids.Add(1)
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callStats accumulates one kind of slab call: count, summed time and a
// bounded sample of per-call durations in microseconds.
type callStats struct {
	n     atomic.Int64
	total atomic.Int64 // ns
	mu    sync.Mutex
	us    []float64
}

// maxCallSamples caps the per-call sample kept for percentiles; the
// count and summed time stay exact beyond it.
const maxCallSamples = 1 << 20

func (c *callStats) add(start time.Time) {
	d := time.Since(start)
	c.n.Add(1)
	c.total.Add(int64(d))
	c.mu.Lock()
	if len(c.us) < maxCallSamples {
		c.us = append(c.us, float64(d)/float64(time.Microsecond))
	}
	c.mu.Unlock()
}

func (c *callStats) samples() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.us...)
}

// timedStore is the benchmark's RowStore wrapper: it times every row
// read and write the training step loop and flushers make against the
// slab, and passes everything through unchanged.
type timedStore struct {
	frugal.RowStore
	reads, writes callStats
}

func (s *timedStore) ReadRow(key uint64, dst []float32) uint64 {
	t := time.Now()
	v := s.RowStore.ReadRow(key, dst)
	s.reads.add(t)
	return v
}

func (s *timedStore) ReadRowDirect(key uint64, dst []float32) {
	t := time.Now()
	s.RowStore.ReadRowDirect(key, dst)
	s.reads.add(t)
}

func (s *timedStore) ReadRowLocked(key uint64, dst []float32) {
	t := time.Now()
	s.RowStore.ReadRowLocked(key, dst)
	s.reads.add(t)
}

func (s *timedStore) ApplyDelta(key uint64, delta []float32, stateDelta float32) {
	t := time.Now()
	s.RowStore.ApplyDelta(key, delta, stateDelta)
	s.writes.add(t)
}

func (s *timedStore) ApplyUpdates(key uint64, updates []pq.Update) {
	t := time.Now()
	s.RowStore.ApplyUpdates(key, updates)
	s.writes.add(t)
}
