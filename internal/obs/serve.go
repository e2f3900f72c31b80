package obs

import "time"

// ServeObs observes the online serving read path (internal/serve): query
// counts, consistency outcomes, and client-visible latency. It is a
// standalone surface rather than part of Observer — a serving engine can
// outlive (or exist without) a training job, so its metrics are not folded
// into the job Snapshot. Like every other sub-observer, a nil *ServeObs is
// a valid no-op sink.
type ServeObs struct {
	lookups   Counter
	topks     Counter
	rejected  Counter // bounded reads refused for exceeding the staleness bound
	refreshed Counter // reads satisfied by force-flushing the pending write set
	shed      Counter // requests refused by admission control (overload)
	canceled  Counter // requests abandoned on context cancellation/deadline
	lookupLat Histogram
	topkLat   Histogram
}

// NewServeObs builds a ServeObs with n counter shards (use the expected
// concurrent client count).
func NewServeObs(n int) *ServeObs {
	return &ServeObs{
		lookups: newCounter(n), topks: newCounter(n),
		rejected: newCounter(n), refreshed: newCounter(n),
		shed: newCounter(n), canceled: newCounter(n),
	}
}

// Lookup records one completed single-row lookup.
func (s *ServeObs) Lookup(client int, took time.Duration) {
	if s == nil {
		return
	}
	s.lookups.Add(client, 1)
	s.lookupLat.Observe(int64(took))
}

// TopK records one completed top-K similarity query.
func (s *ServeObs) TopK(client int, took time.Duration) {
	if s == nil {
		return
	}
	s.topks.Add(client, 1)
	s.topkLat.Observe(int64(took))
}

// Rejected records a bounded read refused because the row's flush lag
// exceeded the staleness bound.
func (s *ServeObs) Rejected(client int) {
	if s == nil {
		return
	}
	s.rejected.Add(client, 1)
}

// Refreshed records a read that force-flushed the row's pending g-entry
// to meet its consistency level (the `fresh` path, or a bounded refresh).
func (s *ServeObs) Refreshed(client int) {
	if s == nil {
		return
	}
	s.refreshed.Add(client, 1)
}

// Shed records a request refused by admission control: the engine was at
// its inflight capacity and the bounded admission wait expired (or the
// wait queue itself was full). Shed requests answer 429 with Retry-After;
// a rising shed counter is the overload signal.
func (s *ServeObs) Shed(client int) {
	if s == nil {
		return
	}
	s.shed.Add(client, 1)
}

// Canceled records a request abandoned because its context was canceled
// or its deadline expired — during the admission wait or between top-K
// scan chunks.
func (s *ServeObs) Canceled(client int) {
	if s == nil {
		return
	}
	s.canceled.Add(client, 1)
}

// ServeSnapshot is a point-in-time copy of a ServeObs.
type ServeSnapshot struct {
	Lookups       int64        `json:"lookups"`
	TopKs         int64        `json:"topks"`
	Rejected      int64        `json:"rejected"`
	Refreshed     int64        `json:"refreshed"`
	Shed          int64        `json:"shed"`
	Canceled      int64        `json:"canceled"`
	LookupLatency HistSnapshot `json:"lookupLatency"`
	TopKLatency   HistSnapshot `json:"topkLatency"`
}

// Snapshot sums the counters; a nil ServeObs returns the zero snapshot.
func (s *ServeObs) Snapshot() ServeSnapshot {
	if s == nil {
		return ServeSnapshot{}
	}
	return ServeSnapshot{
		Lookups:       s.lookups.Total(),
		TopKs:         s.topks.Total(),
		Rejected:      s.rejected.Total(),
		Refreshed:     s.refreshed.Total(),
		Shed:          s.shed.Total(),
		Canceled:      s.canceled.Total(),
		LookupLatency: s.lookupLat.snapshot(),
		TopKLatency:   s.topkLat.snapshot(),
	}
}
