package main

import (
	"fmt"
	"strings"
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
// error. Node mode needs a shape and a coherent topology slot; driver
// mode needs addresses and a positive step budget.
func (o options) validate() error {
	if o.Connect != "" {
		if len(splitAddrs(o.Connect)) == 0 {
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
	if o.Rows <= 0 || o.Dim <= 0 {
		return fmt.Errorf("-rows and -dim are required in node mode (got %d, %d)", o.Rows, o.Dim)
	}
	if o.Of <= 0 {
		return fmt.Errorf("-of must be positive (got %d)", o.Of)
	}
	if o.Shard < 0 || o.Shard >= o.Of {
		return fmt.Errorf("-shard must be in [0, %d) (got %d)", o.Of, o.Shard)
	}
	if o.Flushers <= 0 {
		return fmt.Errorf("-flushers must be positive (got %d)", o.Flushers)
	}
	if o.Trainers <= 0 {
		return fmt.Errorf("-trainers must be positive (got %d)", o.Trainers)
	}
	return nil
}
