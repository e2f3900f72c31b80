// Package sim is the virtual-time performance model that regenerates the
// paper's tables and figures. It co-simulates one training iteration at a
// time: real per-GPU cache structures and a real lookahead window drive
// hit rates and P²F flush priorities, while the hw package prices every
// transfer, kernel and CPU software path in simulated seconds. Absolute
// numbers are calibrated, but the relative behaviour — who wins, by what
// factor, where the knees are — emerges from the modelled mechanisms
// (no PCIe P2P, bounced collectives, root-complex contention, UVA reads,
// priority-ordered background flushing).
package sim

import (
	"fmt"

	"frugal/internal/data"
)

// Workload describes the embedding traffic of one training job.
type Workload struct {
	// Batch is the global batch size in samples.
	Batch int
	// KeysPerSample is the number of embedding lookups per sample
	// (features for REC, 3 for a KG triple).
	KeysPerSample int
	// SharedKeys are additional per-batch lookups shared by all samples
	// (KG negative samples).
	SharedKeys int
	// Dim is the embedding dimension.
	Dim int
	// KeySpace is the number of distinct embedding keys.
	KeySpace uint64
	// Distribution selects the key skew.
	Distribution data.Distribution
	// DNNFlopsPerSample is the dense forward+backward work per sample.
	DNNFlopsPerSample float64
	// CPUPerSample is CPU-side preprocessing per sample (graph sampling
	// for KG, feature parsing), charged to the "other" bucket.
	CPUPerSample float64
	// Seed makes traces reproducible.
	Seed int64
}

// Validate checks the workload shape.
func (w *Workload) Validate() error {
	if w.Batch <= 0 || w.KeysPerSample <= 0 || w.Dim <= 0 || w.KeySpace == 0 {
		return fmt.Errorf("sim: incomplete workload %+v", w)
	}
	if w.Distribution == "" {
		w.Distribution = data.DistZipf09
	}
	return nil
}

// RowBytes is the embedding row footprint.
func (w *Workload) RowBytes() int64 { return int64(w.Dim) * 4 }

// KeysPerBatch is the total lookups per global batch.
func (w *Workload) KeysPerBatch() int { return w.Batch*w.KeysPerSample + w.SharedKeys }

// MicroWorkload is the Exp #1 synthetic workload: 10 M keys, dim 32, no
// DNN, DLRM-like 26 lookups per sample.
func MicroWorkload(dist data.Distribution, batch int) Workload {
	return Workload{
		Batch:         batch,
		KeysPerSample: 26,
		Dim:           32,
		KeySpace:      10_000_000,
		Distribution:  dist,
		Seed:          1,
	}
}

// RECWorkload derives the DLRM workload of a Table 2 dataset. layers sets
// the top-MLP depth (Exp #11 sweeps it; 0 → the paper's 512-512-256-1).
func RECWorkload(spec data.Spec, batch, layers int) Workload {
	if batch <= 0 {
		batch = spec.DefaultBatch
	}
	if layers <= 0 {
		layers = 4
	}
	// 512-512-256-1-ish top net: ≈6 flops per weight forward+backward.
	flops := float64(spec.EmbDim)*512*6 + 512*256*6 + 256*6
	flops += float64(layers-3) * 512 * 512 * 6
	return Workload{
		Batch:             batch,
		KeysPerSample:     spec.Features,
		Dim:               spec.EmbDim,
		KeySpace:          spec.KeySpace(),
		Distribution:      data.DistZipf09,
		DNNFlopsPerSample: flops,
		CPUPerSample:      40e-9,
		Seed:              2,
	}
}

// KGWorkload derives the TransE-style workload of a Table 2 KG dataset.
// scoreFlopsPerDim lets Exp #11 distinguish the four scoring functions
// (0 → TransE's ~8 flops per dimension per candidate).
func KGWorkload(spec data.Spec, batch int, scoreFlopsPerDim float64) Workload {
	if batch <= 0 {
		batch = spec.DefaultBatch
	}
	if scoreFlopsPerDim <= 0 {
		scoreFlopsPerDim = 8
	}
	const negSample = 200
	// Each positive scores against 200 shared negatives.
	flops := scoreFlopsPerDim * float64(spec.EmbDim) * float64(1+negSample)
	return Workload{
		Batch:             batch,
		KeysPerSample:     3,
		SharedKeys:        negSample,
		Dim:               spec.EmbDim,
		KeySpace:          spec.KeySpace(),
		Distribution:      data.DistZipf09,
		DNNFlopsPerSample: flops,
		CPUPerSample:      450e-9, // graph sampling is CPU-heavy
		Seed:              3,
	}
}

// trace generates the batch-key stream of a workload.
type trace struct {
	w      *Workload
	perKey data.KeyGen
	negs   data.KeyGen
}

func newTrace(w *Workload) (*trace, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	gen, err := data.NewGen(w.Distribution, w.Seed, w.KeySpace)
	if err != nil {
		return nil, err
	}
	t := &trace{w: w, perKey: gen}
	if w.SharedKeys > 0 {
		t.negs = data.NewUniform(w.Seed+17, w.KeySpace)
	}
	return t, nil
}

// next produces one global batch of keys.
func (t *trace) next() []uint64 {
	keys := make([]uint64, 0, t.w.KeysPerBatch())
	for i := 0; i < t.w.Batch*t.w.KeysPerSample; i++ {
		keys = append(keys, t.perKey.Next())
	}
	for i := 0; i < t.w.SharedKeys; i++ {
		keys = append(keys, t.negs.Next())
	}
	return keys
}
