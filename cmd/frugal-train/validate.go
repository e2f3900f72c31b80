package main

import (
	"fmt"
	"time"

	"frugal"
)

// options are the flag values vetted before any training work starts.
type options struct {
	Engine      string
	GPUs        int
	Steps       int64
	Micro       bool
	Replay      string
	Stream      bool
	StreamRate  float64
	StreamLog   string
	Duration    time.Duration
	FaultPlan   string
	GateTimeout time.Duration
	MaxRespawns int
}

// validate rejects invalid flag combinations up front with a usage error —
// a bad plan spec, a flag without the mode it needs, or fault machinery
// requested on an engine that does not have it — instead of letting the
// run silently no-op or fail midway. Config values the library checks
// (the engine name, prefetch and cold-tier settings) are left to
// frugal.New and frugal.NewStreamJob. It returns the parsed fault plan
// (empty for an empty -fault-plan).
func validate(o options) (frugal.FaultPlan, error) {
	engine := frugal.Engine(o.Engine)
	if o.GPUs < 1 {
		return frugal.FaultPlan{}, fmt.Errorf("-gpus must be at least 1 (got %d)", o.GPUs)
	}
	if o.Steps < 1 {
		return frugal.FaultPlan{}, fmt.Errorf("-steps must be at least 1 (got %d)", o.Steps)
	}
	if o.Micro && o.Replay != "" {
		return frugal.FaultPlan{}, fmt.Errorf("-micro and -replay are mutually exclusive")
	}
	if o.Stream && (o.Micro || o.Replay != "") {
		return frugal.FaultPlan{}, fmt.Errorf("-stream is mutually exclusive with -micro and -replay")
	}
	if !o.Stream {
		if o.StreamRate != 0 {
			return frugal.FaultPlan{}, fmt.Errorf("-stream-rate requires -stream")
		}
		if o.StreamLog != "" {
			return frugal.FaultPlan{}, fmt.Errorf("-stream-log requires -stream")
		}
		if o.Duration != 0 {
			return frugal.FaultPlan{}, fmt.Errorf("-duration requires -stream (bounded runs use -steps)")
		}
	}
	if o.StreamRate < 0 {
		return frugal.FaultPlan{}, fmt.Errorf("-stream-rate must be ≥ 0 (got %g)", o.StreamRate)
	}
	if o.Duration < 0 {
		return frugal.FaultPlan{}, fmt.Errorf("-duration must be ≥ 0 (got %v)", o.Duration)
	}
	plan, err := frugal.ParseFaultPlan(o.FaultPlan)
	if err != nil {
		return frugal.FaultPlan{}, fmt.Errorf("-fault-plan: %w", err)
	}
	if engine != frugal.EngineFrugal {
		if o.GateTimeout != 0 {
			return frugal.FaultPlan{}, fmt.Errorf("-gate-timeout requires -engine frugal (%s has no consistency gate)", engine)
		}
		if o.MaxRespawns != 0 {
			return frugal.FaultPlan{}, fmt.Errorf("-max-respawns requires -engine frugal (%s has no flusher pool)", engine)
		}
		for _, e := range plan.Events {
			if e.Kind == frugal.FaultFlusherCrash || e.Kind == frugal.FaultFlusherStall {
				return frugal.FaultPlan{}, fmt.Errorf(
					"-fault-plan clause %q requires -engine frugal (%s has no flusher pool)", e, engine)
			}
		}
	}
	return plan, nil
}
