package data

import (
	"fmt"
	"sync"
)

// SyntheticTrace is the Exp #1 microbenchmark workload: `Steps` batches of
// `Batch` keys drawn from a key distribution, exercising only the
// embedding path (no DNN). It implements the p2f TraceSource contract.
type SyntheticTrace struct {
	gen   KeyGen
	batch int
	steps int64
	next  int64
	mu    sync.Mutex
}

// NewSyntheticTrace builds a trace of `steps` batches of `batch` keys.
func NewSyntheticTrace(gen KeyGen, batch int, steps int64) *SyntheticTrace {
	if batch <= 0 || steps <= 0 {
		panic(fmt.Sprintf("data: invalid trace shape batch=%d steps=%d", batch, steps))
	}
	return &SyntheticTrace{gen: gen, batch: batch, steps: steps}
}

// Next returns the next batch of keys, or ok=false past the last step.
func (t *SyntheticTrace) Next() ([]uint64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next >= t.steps {
		return nil, false
	}
	t.next++
	keys := make([]uint64, t.batch)
	for i := range keys {
		keys[i] = t.gen.Next()
	}
	return keys, true
}

// Steps returns the total number of batches in the trace.
func (t *SyntheticTrace) Steps() int64 { return t.steps }

// Batch returns the keys per batch.
func (t *SyntheticTrace) Batch() int { return t.batch }

// ----------------------------------------------------------------------
// REC workload (DLRM-style)

// RECBatch is one global batch of a recommendation workload: per sample,
// one categorical ID per feature plus a binary click label.
type RECBatch struct {
	// Keys holds BatchSize × Features embedding keys, sample-major.
	Keys []uint64
	// Labels holds BatchSize click labels ∈ {0, 1}.
	Labels []float32
	// Features is the per-sample key width.
	Features int
}

// RECStream synthesises an Avazu/Criteo-like trace from a Spec: each
// feature owns a contiguous slice of the ID space and is sampled with the
// dataset's Zipf skew. Labels carry a learnable signal: the click
// probability is a logistic function of hidden per-key weights, so a model
// that learns good embeddings drives the loss down — which is how the
// tests verify the runtime really trains.
type RECStream struct {
	spec    Spec
	batch   int
	steps   int64
	next    int64
	gens    []KeyGen
	offsets []uint64
	mu      sync.Mutex
}

// NewRECStream builds a stream of `steps` batches of `batch` samples.
// Pass batch=0 to use the spec's default batch size.
func NewRECStream(spec Spec, seed int64, batch int, steps int64) (*RECStream, error) {
	if spec.Kind != REC {
		return nil, fmt.Errorf("data: %s is not a REC dataset", spec.Name)
	}
	if batch <= 0 {
		batch = spec.DefaultBatch
	}
	if steps <= 0 {
		return nil, fmt.Errorf("data: steps must be positive, got %d", steps)
	}
	per := uint64(spec.IDs) / uint64(spec.Features)
	if per == 0 {
		per = 1
	}
	s := &RECStream{spec: spec, batch: batch, steps: steps}
	for f := 0; f < spec.Features; f++ {
		s.gens = append(s.gens, NewScrambledZipf(seed+int64(f)*7919, per, spec.Skew))
		s.offsets = append(s.offsets, uint64(f)*per)
	}
	return s, nil
}

// hiddenWeight derives a stable per-key latent weight in [-1, 1] from the
// key itself — the ground truth the labels are generated from.
func hiddenWeight(key uint64) float32 {
	h := key * 0x2545f4914f6cdd1d
	h ^= h >> 32
	return float32(int32(uint32(h))) / float32(1<<31)
}

// NextBatch returns the next typed batch, or ok=false past the last step.
func (s *RECStream) NextBatch() (RECBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.steps {
		return RECBatch{}, false
	}
	s.next++
	b := RECBatch{
		Keys:     make([]uint64, 0, s.batch*s.spec.Features),
		Labels:   make([]float32, 0, s.batch),
		Features: s.spec.Features,
	}
	for i := 0; i < s.batch; i++ {
		var score float32
		for f := 0; f < s.spec.Features; f++ {
			k := s.offsets[f] + s.gens[f].Next()
			b.Keys = append(b.Keys, k)
			score += hiddenWeight(k)
		}
		// Deterministic threshold on the latent score → learnable labels.
		if score > 0 {
			b.Labels = append(b.Labels, 1)
		} else {
			b.Labels = append(b.Labels, 0)
		}
	}
	return b, true
}

// Steps returns the stream length.
func (s *RECStream) Steps() int64 { return s.steps }

// Batch returns the samples per batch.
func (s *RECStream) Batch() int { return s.batch }

// Spec returns the dataset spec of the stream.
func (s *RECStream) Spec() Spec { return s.spec }

// ----------------------------------------------------------------------
// KG workload (TransE-style triples)

// KGBatch is one global batch of knowledge-graph triples with shared
// negative samples (the DGL-KE training regime of §4.1).
type KGBatch struct {
	Heads, Rels, Tails []uint64 // BatchSize triples; Rels are key-space offsets already applied
	Negs               []uint64 // NegSample negative entity keys shared across the batch
}

// AllKeys appends every embedding key the batch touches to dst.
func (b KGBatch) AllKeys(dst []uint64) []uint64 {
	dst = append(dst, b.Heads...)
	dst = append(dst, b.Rels...)
	dst = append(dst, b.Tails...)
	dst = append(dst, b.Negs...)
	return dst
}

// KGClusters is the number of latent entity types in synthetic graphs:
// entity e belongs to cluster e mod KGClusters, and relation r draws its
// tails from cluster r mod KGClusters (relations determine their object
// type, as in real knowledge graphs). This gives the stream the learnable
// regularity link-prediction metrics need; degree skew still follows the
// dataset's Zipf exponent.
const KGClusters = 16

// KGStream synthesises an FB15k/Freebase-like triple stream: head
// entities follow the graph's power-law degree distribution (Zipf), the
// relation is uniform, the tail is drawn from the relation's target type
// cluster, and each batch carries `NegSample` shared negative entities
// (dimensioned per the DGL-KE settings in §4.1).
type KGStream struct {
	spec      Spec
	batch     int
	negSample int
	steps     int64
	next      int64
	entities  KeyGen
	relations KeyGen
	tails     KeyGen
	negGen    KeyGen
	mu        sync.Mutex
}

// NewKGStream builds a stream of `steps` batches of `batch` triples with
// `negSample` shared negatives (0 → the paper's 200).
func NewKGStream(spec Spec, seed int64, batch, negSample int, steps int64) (*KGStream, error) {
	if spec.Kind != KG {
		return nil, fmt.Errorf("data: %s is not a KG dataset", spec.Name)
	}
	if batch <= 0 {
		batch = spec.DefaultBatch
	}
	if negSample <= 0 {
		negSample = 200
	}
	if steps <= 0 {
		return nil, fmt.Errorf("data: steps must be positive, got %d", steps)
	}
	return &KGStream{
		spec: spec, batch: batch, negSample: negSample, steps: steps,
		entities:  NewScrambledZipf(seed, uint64(spec.Vertices), spec.Skew),
		relations: NewUniform(seed+1, uint64(spec.Relations)),
		tails:     NewUniform(seed+3, uint64(spec.Vertices)),
		negGen:    NewUniform(seed+2, uint64(spec.Vertices)),
	}, nil
}

// TailFor draws a tail entity consistent with the latent type structure:
// uniform within the cluster relation `rel` maps head's cluster to.
// Exported so evaluation code can reuse the ground-truth rule.
func (s *KGStream) TailFor(head, rel uint64) uint64 {
	return ClusterTail(head, rel, uint64(s.spec.Vertices), s.tails.Next())
}

// ClusterTail maps a raw uniform draw into the target cluster of
// (head, rel) under the KGClusters block structure.
func ClusterTail(head, rel, vertices, draw uint64) uint64 {
	_ = head // tails are typed by the relation alone
	target := rel % KGClusters
	// Snap the draw onto the stride-KGClusters lattice of the target
	// cluster, staying within the entity range.
	t := draw - draw%KGClusters + target
	if t >= vertices {
		t -= KGClusters
	}
	return t
}

// NextBatch returns the next typed batch, or ok=false past the last step.
func (s *KGStream) NextBatch() (KGBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next >= s.steps {
		return KGBatch{}, false
	}
	s.next++
	relOffset := uint64(s.spec.Vertices)
	b := KGBatch{
		Heads: make([]uint64, s.batch),
		Rels:  make([]uint64, s.batch),
		Tails: make([]uint64, s.batch),
		Negs:  make([]uint64, s.negSample),
	}
	for i := 0; i < s.batch; i++ {
		b.Heads[i] = s.entities.Next()
		rel := s.relations.Next()
		b.Rels[i] = relOffset + rel
		b.Tails[i] = s.TailFor(b.Heads[i], rel)
	}
	for i := range b.Negs {
		b.Negs[i] = s.negGen.Next()
	}
	return b, true
}

// Steps returns the stream length.
func (s *KGStream) Steps() int64 { return s.steps }

// Batch returns the triples per batch.
func (s *KGStream) Batch() int { return s.batch }

// Spec returns the dataset spec of the stream.
func (s *KGStream) Spec() Spec { return s.spec }

// ----------------------------------------------------------------------
// Payload bridging to the controller's sample queue

// PayloadTrace adapts a typed batch stream to the p2f TraceSource
// contract while retaining each step's typed payload until the runtime
// consumes it with Take. The controller's prefetch depth bounds the number
// of outstanding payloads to L, so memory stays constant: they are kept in
// a ring that grows only when the span from the oldest untaken step to the
// newest outgrows it, so a run in steady state stores and takes payloads
// without allocating.
type PayloadTrace[T any] struct {
	gen func() (payload T, keys []uint64, ok bool)
	mu  sync.Mutex
	// ring holds the payloads of steps [first, next) at index step mod
	// len(ring), a power of two; a taken step's slot stays empty until
	// first passes it.
	ring        []heldPayload[T]
	first, next int64
}

type heldPayload[T any] struct {
	v  T
	ok bool
}

// NewPayloadTrace wraps a generator that yields (payload, keys) pairs.
func NewPayloadTrace[T any](gen func() (T, []uint64, bool)) *PayloadTrace[T] {
	return &PayloadTrace[T]{gen: gen, ring: make([]heldPayload[T], 16)}
}

func (p *PayloadTrace[T]) at(step int64) *heldPayload[T] {
	return &p.ring[step&int64(len(p.ring)-1)]
}

// Next implements the TraceSource contract for the controller's prefetch
// goroutine, its only caller. The generator runs outside the lock, so a
// slow batch does not hold up Take of the steps already generated.
func (p *PayloadTrace[T]) Next() ([]uint64, bool) {
	payload, keys, ok := p.gen()
	if !ok {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next-p.first == int64(len(p.ring)) {
		old := p.ring
		p.ring = make([]heldPayload[T], 2*len(old))
		for s := p.first; s < p.next; s++ {
			*p.at(s) = old[s&int64(len(old)-1)]
		}
	}
	*p.at(p.next) = heldPayload[T]{payload, true}
	p.next++
	return keys, true
}

// Take removes and returns the typed payload of a step. It panics when the
// step was never generated or was already taken — both are runtime bugs.
func (p *PayloadTrace[T]) Take(step int64) T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if step < p.first || step >= p.next || !p.at(step).ok {
		panic(fmt.Sprintf("data: payload for step %d missing (double Take or never generated)", step))
	}
	h := p.at(step)
	payload := h.v
	*h = heldPayload[T]{}
	for p.first < p.next && !p.at(p.first).ok {
		p.first++
	}
	return payload
}
