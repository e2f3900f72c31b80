package main

import (
	"fmt"
	"os"
	"time"

	"frugal"
	"frugal/internal/shard"
)

// options are the flag values vetted before any serving work starts.
type options struct {
	Addr         string
	Checkpoint   string
	Shards       string
	Follow       string
	PromoteAfter time.Duration
	WaitForLog   time.Duration
	Level        string
	Drain        time.Duration
	LoadGen      time.Duration
	Rate         float64
	Index        string
	ColdTier     bool
	statFile     func(string) error // test seam; nil = os.Stat
}

// validate rejects invalid flag combinations up front with a usage error —
// a bad consistency level, a flag without the mode it needs, a missing
// checkpoint. Option values the library checks (admission, timeouts, IVF
// knobs, the hot fraction) are left to the server constructors, which
// reject them before loading or dialing anything. It returns the parsed
// default consistency level and top-K index kind.
func validate(o options) (frugal.ServeLevel, frugal.IndexKind, error) {
	fail := func(err error) (frugal.ServeLevel, frugal.IndexKind, error) {
		return frugal.ServeLevel{}, frugal.IndexAuto, err
	}
	lvl, err := frugal.ParseServeLevel(o.Level)
	if err != nil {
		return fail(fmt.Errorf("-level: %w", err))
	}
	kind, err := frugal.ParseIndexKind(o.Index)
	if err != nil {
		return fail(fmt.Errorf("-index: %w", err))
	}
	sources := 0
	for _, set := range []bool{o.Checkpoint != "", o.Shards != "", o.Follow != ""} {
		if set {
			sources++
		}
	}
	if sources == 0 {
		return fail(fmt.Errorf("-checkpoint, -shards or -follow is required (train a checkpoint with frugal-train -checkpoint-out, start frugal-shard nodes, or tail a -stream-log directory)"))
	}
	if sources > 1 {
		return fail(fmt.Errorf("-checkpoint, -shards and -follow are mutually exclusive (one slab per server)"))
	}
	if o.Follow == "" {
		if o.PromoteAfter != 0 {
			return fail(fmt.Errorf("-promote-after requires -follow"))
		}
		if o.WaitForLog != 0 {
			return fail(fmt.Errorf("-wait-for-log requires -follow"))
		}
	} else {
		if o.PromoteAfter < 0 {
			return fail(fmt.Errorf("-promote-after must not be negative (got %v; 0 never auto-promotes)", o.PromoteAfter))
		}
		if o.WaitForLog < 0 {
			return fail(fmt.Errorf("-wait-for-log must not be negative (got %v)", o.WaitForLog))
		}
	}
	if o.Shards != "" && len(shard.SplitAddrs(o.Shards)) == 0 {
		return fail(fmt.Errorf("-shards lists no addresses (got %q)", o.Shards))
	}
	if kind == frugal.IndexIVF && o.Checkpoint == "" {
		return fail(fmt.Errorf("-index=ivf needs an in-process slab (-checkpoint); sharded servers scan per shard and followers get no IVF repair feed"))
	}
	if o.ColdTier && o.Checkpoint == "" {
		return fail(fmt.Errorf("-cold-tier needs an in-process checkpoint slab (-checkpoint)"))
	}
	if o.Checkpoint != "" {
		stat := o.statFile
		if stat == nil {
			stat = func(path string) error {
				_, err := os.Stat(path)
				return err
			}
		}
		if err := stat(o.Checkpoint); err != nil {
			return fail(fmt.Errorf("-checkpoint: %w", err))
		}
	}
	if o.Drain < 0 {
		return fail(fmt.Errorf("-drain must not be negative (got %v)", o.Drain))
	}
	if o.LoadGen < 0 {
		return fail(fmt.Errorf("-loadgen must not be negative (got %v)", o.LoadGen))
	}
	if o.Rate < 0 {
		return fail(fmt.Errorf("-rate must not be negative (got %v; 0 keeps the closed loop)", o.Rate))
	}
	if o.Rate > 0 && o.LoadGen == 0 {
		return fail(fmt.Errorf("-rate needs -loadgen (the open loop is a load-generator mode)"))
	}
	if o.LoadGen == 0 && o.Addr == "" {
		return fail(fmt.Errorf("-addr must not be empty without -loadgen (nothing to do)"))
	}
	return lvl, kind, nil
}
