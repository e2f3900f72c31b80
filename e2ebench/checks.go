package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"frugal/internal/data"
	"frugal/internal/serve"
	"frugal/internal/stream"
)

// checkReads verifies every served bounded(k) lookup from its own
// metadata:
//
//   - the reported staleness is within the request's bound;
//   - the serving inequality holds: the row's version counts at least
//     one update per trainer that touched the key in each step up to
//     watermark − staleness (the steps the read claims to include);
//   - versions never go backwards between one executor's successive
//     reads of a key on one replica.
//
// The per-step key sets come from a mirror of the stream job's event
// source (same seed, distribution, batch and key space, unpaced).
func checkReads(reads []readMeta, seed int64, dist data.Distribution, horizon int64) error {
	type lastKey struct {
		exec     int
		follower bool
		key      uint64
	}
	last := map[lastKey]uint64{}
	order := make([]int, 0, len(reads))
	for i, r := range reads {
		m := r.meta
		if m.Staleness > r.bound {
			return fmt.Errorf("lookup key %d: staleness %d over bound %d", r.key, m.Staleness, r.bound)
		}
		lk := lastKey{r.exec, r.follower, r.key}
		if prev, ok := last[lk]; ok && m.Version < prev {
			return fmt.Errorf("lookup key %d: version went backwards %d → %d", r.key, prev, m.Version)
		}
		last[lk] = m.Version
		if m.Watermark-m.Staleness >= 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := reads[order[a]].meta, reads[order[b]].meta
		return ra.Watermark-ra.Staleness < rb.Watermark-rb.Staleness
	})
	if len(order) == 0 {
		return nil
	}
	mirror, err := stream.New(stream.Options{
		Batch: liveBatch, Keys: liveRows, Distribution: dist, Seed: seed + 1, Horizon: horizon,
	})
	if err != nil {
		return err
	}
	floors := make([]uint64, liveRows)
	step := int64(-1)
	seen := make([]map[uint64]bool, numGPUs)
	for _, i := range order {
		r := reads[i]
		upTo := r.meta.Watermark - r.meta.Staleness
		for step < upTo {
			keys, ok := mirror.Next()
			if !ok {
				return fmt.Errorf("lookup key %d: watermark %d beyond the stream's %d steps", r.key, r.meta.Watermark, step+1)
			}
			step++
			addStepUpdates(floors, keys, seen)
		}
		if need := floors[r.key]; r.meta.Version < need {
			return fmt.Errorf("lookup key %d: version %d < %d updates committed by step %d (watermark %d − staleness %d)",
				r.key, r.meta.Version, need, upTo, r.meta.Watermark, r.meta.Staleness)
		}
	}
	return nil
}

// addStepUpdates counts, for every key of one global batch, one update
// per trainer whose share holds it (the runtime deals keys round-robin).
func addStepUpdates(floors []uint64, keys []uint64, seen []map[uint64]bool) {
	for w := range seen {
		if seen[w] == nil {
			seen[w] = map[uint64]bool{}
		}
		clear(seen[w])
		for i := w; i < len(keys); i += len(seen) {
			if k := keys[i]; !seen[w][k] {
				seen[w][k] = true
				floors[k]++
			}
		}
	}
}

// checkBacklog fails when the stream's arrival backlog grew over the
// window: the high end of its last third exceeds that of its first
// third by more than eight batches.
func checkBacklog(samples []float64, batch int) error {
	if len(samples) < 30 {
		return fmt.Errorf("stream backlog: only %d samples", len(samples))
	}
	n := len(samples) / 3
	first, _, _ := percentile(samples[:n], 0.9)
	lastV, _, _ := percentile(samples[len(samples)-n:], 0.9)
	if lastV > first+float64(8*batch) {
		return fmt.Errorf("stream backlog grew over the window: p90 %.0f → %.0f events", first, lastV)
	}
	return nil
}

// rowReader is the slab surface the log check compares.
type rowReader interface {
	Rows() int64
	Dim() int
	ReadRow(key uint64, dst []float32) uint64
}

// sameRows compares two slabs row by row, values bit for bit.
func sameRows(got, want rowReader) error {
	if got.Rows() != want.Rows() || got.Dim() != want.Dim() {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.Rows(), got.Dim(), want.Rows(), want.Dim())
	}
	a, b := make([]float32, got.Dim()), make([]float32, want.Dim())
	for k := uint64(0); k < uint64(got.Rows()); k++ {
		got.ReadRow(k, a)
		want.ReadRow(k, b)
		for j := range a {
			if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
				return fmt.Errorf("row %d[%d] = %v, want %v", k, j, a[j], b[j])
			}
		}
	}
	return nil
}

// checkTopK verifies a top-K response: k distinct in-range keys with
// finite scores, best first.
func checkTopK(res []serve.Candidate, k int, rows int64) error {
	if len(res) != k {
		return fmt.Errorf("top-K: %d results, want %d", len(res), k)
	}
	seen := make(map[uint64]bool, k)
	for i, c := range res {
		if c.Key >= uint64(rows) || seen[c.Key] {
			return fmt.Errorf("top-K: result %d key %d out of range or repeated", i, c.Key)
		}
		seen[c.Key] = true
		if math.IsNaN(float64(c.Score)) || math.IsInf(float64(c.Score), 0) {
			return fmt.Errorf("top-K: result %d score %v", i, c.Score)
		}
		if i > 0 && c.Score > res[i-1].Score {
			return fmt.Errorf("top-K: result %d score %v above result %d's %v", i, c.Score, i-1, res[i-1].Score)
		}
	}
	return nil
}

// checkLoss compares loss with the first value recorded for the same
// workload, seed and length under dir, recording it if there is none.
// relTol is 0 (bit-identical) except where int8 requantization makes the
// trajectory depend on tier-move timing.
func checkLoss(dir, name string, loss, relTol float64) error {
	path := filepath.Join(dir, name)
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(strconv.FormatFloat(loss, 'g', -1, 64)+"\n"), 0o644)
	}
	if err != nil {
		return err
	}
	first, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
	if err != nil {
		return fmt.Errorf("loss record %s: %w", path, err)
	}
	return sameLoss(loss, first, relTol)
}

func sameLoss(loss, first, relTol float64) error {
	if relTol == 0 && loss != first || math.Abs(loss-first) > relTol*math.Abs(first) {
		return fmt.Errorf("loss_final %v differs from the first run's %v (tolerance %g)", loss, first, relTol)
	}
	return nil
}
