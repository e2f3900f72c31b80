package data

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// FileTrace replays a recorded key trace (one batch per line, keys
// space-separated — the format cmd/frugal-datagen emits with -trace).
// It implements the p2f TraceSource contract, so recorded production
// traces can drive the runtime and the simulator alike.
type FileTrace struct {
	batches [][]uint64
	mu      sync.Mutex
	next    int
}

// ReadKeyTrace parses a key trace. Blank lines are skipped; any malformed
// token aborts with a line-numbered error.
func ReadKeyTrace(r io.Reader) (*FileTrace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	t := &FileTrace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		batch := make([]uint64, len(fields))
		for i, f := range fields {
			k, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("data: trace line %d: bad key %q: %w", line, f, err)
			}
			batch[i] = k
		}
		t.batches = append(t.batches, batch)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("data: reading trace: %w", err)
	}
	if len(t.batches) == 0 {
		return nil, fmt.Errorf("data: trace is empty")
	}
	return t, nil
}

// Next returns the next recorded batch, or ok=false at end of trace.
func (t *FileTrace) Next() ([]uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next >= len(t.batches) {
		return nil, false
	}
	b := t.batches[t.next]
	t.next++
	return b, true
}

// Steps returns the number of recorded batches.
func (t *FileTrace) Steps() int64 { return int64(len(t.batches)) }

// Batch returns the first batch's key count (recorded traces are usually
// rectangular; heterogeneous batches are allowed and replayed verbatim).
func (t *FileTrace) Batch() int {
	if len(t.batches) == 0 {
		return 0
	}
	return len(t.batches[0])
}

// MaxKey returns the largest key in the trace — callers size their
// embedding tables as MaxKey()+1.
func (t *FileTrace) MaxKey() uint64 {
	var max uint64
	for _, b := range t.batches {
		for _, k := range b {
			if k > max {
				max = k
			}
		}
	}
	return max
}
