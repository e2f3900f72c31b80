// Package stream turns training into a continuous process: an unbounded
// event source — clicks, edges, interactions arriving at a configured
// rate — grouped into fixed-size batches that drive the existing step
// loop through the runtime.KeyTrace surface. There is no train/serve
// phase split: the job trains for as long as events keep arriving (or
// until the horizon), and the delta-checkpoint log (internal/ckpt) plus
// serve followers ride alongside.
package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"frugal/internal/data"
)

// Options shapes a Source.
type Options struct {
	// Rate is the event arrival rate per second. The arrival process is
	// open-loop: events accumulate at this rate no matter how fast the
	// trainer consumes them (Backlog reports the gap). ≤ 0 removes the
	// pacing entirely — batches are handed out as fast as they are asked
	// for (tests, benchmarks).
	Rate float64
	// Batch is the events per global training step (default 256).
	Batch int
	// Keys is the key space (required).
	Keys uint64
	// Distribution draws the event keys (default zipf-0.9).
	Distribution data.Distribution
	// Seed makes the event stream reproducible.
	Seed int64
	// Horizon caps the stream's length in steps (default 1<<20); after
	// it, Next reports end-of-stream.
	Horizon int64
}

func (o *Options) normalize() error {
	if o.Batch <= 0 {
		o.Batch = 256
	}
	if o.Keys == 0 {
		return fmt.Errorf("stream: Options.Keys is required")
	}
	if o.Distribution == "" {
		o.Distribution = data.DistZipf09
	}
	if o.Horizon <= 0 {
		o.Horizon = 1 << 20
	}
	return nil
}

// Source is an unbounded, rate-paced event source implementing
// runtime.KeyTrace: Next blocks until the next batch of events has
// "arrived" (or returns false once closed / past the horizon). Next is
// called by the job's single trace consumer; Close, Emitted and Backlog
// are safe from any goroutine.
type Source struct {
	opt Options
	gen data.KeyGen

	startOnce sync.Once
	startNano atomic.Int64

	produced int64 // batches handed out (trace-consumer goroutine only)
	emitted  atomic.Int64

	closed    chan struct{}
	closeOnce sync.Once
}

// New builds a Source.
func New(opt Options) (*Source, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	gen, err := data.NewGen(opt.Distribution, opt.Seed, opt.Keys)
	if err != nil {
		return nil, err
	}
	return &Source{opt: opt, gen: gen, closed: make(chan struct{})}, nil
}

// Next returns the next batch of event keys, blocking until the arrival
// process has produced them. It returns false when the source is closed
// or the horizon is reached. The returned slice is freshly allocated —
// the runtime retains it for the step's lifetime.
func (s *Source) Next() ([]uint64, bool) {
	select {
	case <-s.closed:
		return nil, false
	default:
	}
	if s.produced >= s.opt.Horizon {
		return nil, false
	}
	s.startOnce.Do(func() { s.startNano.Store(time.Now().UnixNano()) })
	if s.opt.Rate > 0 {
		// Batch n is complete once n+1 batches' worth of events have
		// arrived. Waiting against the absolute schedule (not a relative
		// sleep) keeps the arrival process open-loop: a slow consumer
		// builds backlog instead of slowing arrivals down.
		due := time.Unix(0, s.startNano.Load()).
			Add(time.Duration(float64(s.produced+1) * float64(s.opt.Batch) / s.opt.Rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-s.closed:
				t.Stop()
				return nil, false
			case <-t.C:
			}
		}
	}
	keys := make([]uint64, s.opt.Batch)
	for i := range keys {
		keys[i] = s.gen.Next()
	}
	s.produced++
	s.emitted.Add(int64(len(keys)))
	return keys, true
}

// Steps returns the horizon (runtime.KeyTrace).
func (s *Source) Steps() int64 { return s.opt.Horizon }

// Batch returns the events per step (runtime.KeyTrace).
func (s *Source) Batch() int { return s.opt.Batch }

// Close ends the stream: the next (or a blocked) Next returns false and
// the job winds down through its normal epilogue. Idempotent.
func (s *Source) Close() { s.closeOnce.Do(func() { close(s.closed) }) }

// Emitted reports events handed to the trainer so far.
func (s *Source) Emitted() int64 { return s.emitted.Load() }

// Backlog estimates the open-loop arrival backlog in events: how many
// have arrived (by wall clock) but not yet been consumed. 0 for unpaced
// sources.
func (s *Source) Backlog() int64 {
	if s.opt.Rate <= 0 {
		return 0
	}
	start := s.startNano.Load()
	if start == 0 {
		return 0
	}
	arrived := int64(s.opt.Rate * time.Since(time.Unix(0, start)).Seconds())
	if max := s.opt.Horizon * int64(s.opt.Batch); arrived > max {
		arrived = max
	}
	if b := arrived - s.emitted.Load(); b > 0 {
		return b
	}
	return 0
}
