package main

import (
	"fmt"
	"strings"

	"frugal/internal/shard"
)

// options are the flag values vetted before the node binds its listener
// or the driver dials anything.
type options struct {
	Addr     string
	Rows     int64
	Dim      int
	Shard    int
	Of       int
	Flushers int
	Trainers int
	Connect  string
	Steps    int64
	Batch    int
	LR       float64
}

// validate rejects invalid flag combinations up front with a usage
// error. Driver mode needs addresses and a positive step budget, checked
// here because the trainer sees them only after dialing. The node's
// shape and topology slot (-rows, -dim, -shard) are shard.NewNode's to
// check, before the listener binds.
func (o options) validate() error {
	if o.Connect != "" {
		if len(shard.SplitAddrs(o.Connect)) == 0 {
			return fmt.Errorf("-connect lists no addresses (got %q)", o.Connect)
		}
		if o.Steps <= 0 {
			return fmt.Errorf("-steps must be positive (got %d)", o.Steps)
		}
		if o.Batch < 0 {
			return fmt.Errorf("-batch must not be negative (got %d; 0 sweeps the full table)", o.Batch)
		}
		if o.LR <= 0 {
			return fmt.Errorf("-lr must be positive (got %g)", o.LR)
		}
		return nil
	}
	if strings.TrimSpace(o.Addr) == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if o.Of <= 0 {
		return fmt.Errorf("-of must be positive (got %d)", o.Of)
	}
	if o.Flushers <= 0 {
		return fmt.Errorf("-flushers must be positive (got %d)", o.Flushers)
	}
	if o.Trainers <= 0 {
		return fmt.Errorf("-trainers must be positive (got %d)", o.Trainers)
	}
	return nil
}
