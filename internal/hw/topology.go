package hw

import "fmt"

// Params holds the calibration constants of the analytic cost model. The
// defaults are tuned so that the motivation experiments of the paper
// (Fig 3a-c, Fig 10) come out with the published ratios; every experiment
// runner uses DefaultParams unless it is explicitly studying one of these
// knobs.
type Params struct {
	// PCIeEfficiency scales nominal link bandwidth to achievable DMA
	// bandwidth (protocol + TLP overhead).
	PCIeEfficiency float64
	// CollectiveEfficiency scales achievable bandwidth down to what an
	// all_to_all software collective actually delivers on a PCIe tree
	// (synchronisation, chunking, imperfect overlap).
	CollectiveEfficiency float64
	// BounceFactor is the effective traffic multiplier of a GPU→host→GPU
	// bounced transfer relative to a direct P2P one. A perfect
	// store-and-forward bounce costs 2.0; pipelining the two hops
	// recovers part of it.
	BounceFactor float64
	// DMALatency is the fixed cost of one cudaMemcpy-style DMA operation
	// (driver call + engine programming), seconds.
	DMALatency float64
	// KernelLatency is the fixed launch cost of one GPU kernel, seconds.
	KernelLatency float64
	// CollectiveLatency is the fixed software cost of one collective
	// message exchanged between a pair of ranks, seconds.
	CollectiveLatency float64
	// CPUMissFixed is the fixed CPU software cost of servicing one batch
	// of cache misses through the CPU-involved path (request marshalling,
	// thread wakeups), seconds.
	CPUMissFixed float64
	// CPUMissPerKey is the per-key CPU software cost of the CPU-involved
	// miss path (hash lookup, gather into the staging buffer), seconds.
	CPUMissPerKey float64
	// UVALatency is the fixed cost of a UVA zero-copy gather kernel,
	// seconds.
	UVALatency float64
	// UVARandomBWGBps is the achievable bandwidth of fine-grained random
	// UVA reads from host memory (PCIe non-prefetchable read efficiency
	// with massive GPU thread-level parallelism), GB/s.
	UVARandomBWGBps float64
	// HostMemGBps is aggregate host DRAM bandwidth, GB/s.
	HostMemGBps float64
	// RootComplexGBps is the aggregate bandwidth of the CPU root complex
	// shared by all GPU links, GB/s.
	RootComplexGBps float64
	// HostCopyGBps is the bandwidth of a CPU memcpy into the bounce /
	// staging buffer, GB/s (single threaded-ish driver copies).
	HostCopyGBps float64
	// ComputeEfficiency scales peak TFLOPS to delivered TFLOPS for the
	// small dense kernels of embedding models.
	ComputeEfficiency float64
	// UVMPageBytes is the migration granularity of CUDA Unified Virtual
	// Memory (PyTorch-UVM baseline), bytes.
	UVMPageBytes int64
	// UVMFaultLatency is the cost of one UVM page fault, seconds.
	UVMFaultLatency float64
}

// DefaultParams returns the calibrated model constants.
func DefaultParams() Params {
	return Params{
		PCIeEfficiency:       0.85,
		CollectiveEfficiency: 0.17,
		BounceFactor:         1.82,
		DMALatency:           12e-6,
		KernelLatency:        8e-6,
		CollectiveLatency:    22e-6,
		CPUMissFixed:         25e-6,
		CPUMissPerKey:        51e-9,
		UVALatency:           11e-6,
		UVARandomBWGBps:      5.3,
		HostMemGBps:          105,
		RootComplexGBps:      78,
		HostCopyGBps:         11,
		ComputeEfficiency:    0.30,
		UVMPageBytes:         4096,
		UVMFaultLatency:      20e-6,
	}
}

// Topology is a single server with NumGPUs identical GPUs hanging off one
// CPU root complex, each on its own PCIe link — the testbed of §4.1 (and,
// with a datacenter spec, the A30 comparison box of Exp #9).
type Topology struct {
	GPU     GPUSpec
	NumGPUs int
	P       Params
}

// NewTopology builds a topology and validates its shape.
func NewTopology(gpu GPUSpec, numGPUs int, p Params) (*Topology, error) {
	if numGPUs < 1 {
		return nil, fmt.Errorf("hw: need at least 1 GPU, got %d", numGPUs)
	}
	if p.RootComplexGBps <= 0 || p.HostMemGBps <= 0 {
		return nil, fmt.Errorf("hw: non-positive bandwidth in params")
	}
	return &Topology{GPU: gpu, NumGPUs: numGPUs, P: p}, nil
}

// MustTopology is NewTopology for static configurations that cannot fail.
func MustTopology(gpu GPUSpec, numGPUs int, p Params) *Topology {
	t, err := NewTopology(gpu, numGPUs, p)
	if err != nil {
		panic(err)
	}
	return t
}

const gb = 1e9

// linkBW returns the achievable unidirectional bandwidth of one GPU link in
// bytes/second.
func (t *Topology) linkBW() float64 {
	return t.GPU.LinkGBps * gb * t.P.PCIeEfficiency
}

// sharedLinkBW returns the per-flow bandwidth when `flows` concurrent flows
// traverse the root complex, in bytes/second: each flow gets its own link
// bandwidth unless the aggregate root-complex bandwidth is the binding
// constraint. This is the mechanism behind the Exp #8 scaling knee.
func (t *Topology) sharedLinkBW(flows int) float64 {
	if flows < 1 {
		flows = 1
	}
	link := t.linkBW()
	agg := t.P.RootComplexGBps * gb / float64(flows)
	if agg < link {
		return agg
	}
	return link
}

// DMA returns the time for one DMA copy of n bytes between a GPU and host
// memory while `flows` such flows are concurrently active.
func (t *Topology) DMA(bytes int64, flows int) float64 {
	return t.P.DMALatency + float64(bytes)/t.sharedLinkBW(flows)
}

// AllToAll returns the time of one all_to_all collective in which each of
// the NumGPUs ranks contributes perRankBytes (so each rank sends
// perRankBytes*(n-1)/n to its peers). This is the communication primitive
// of message-based multi-GPU embedding caches (Fig 2b steps 2 and 4).
func (t *Topology) AllToAll(perRankBytes int64) float64 {
	n := t.NumGPUs
	if n <= 1 {
		return 0
	}
	send := float64(perRankBytes) * float64(n-1) / float64(n)
	bw := t.sharedLinkBW(n) * t.P.CollectiveEfficiency
	lat := t.P.CollectiveLatency * float64(n-1)
	if t.GPU.PCIeP2P {
		return lat + send/bw
	}
	// No P2P: every byte bounces on host memory — the root complex sees
	// (almost) double traffic and the CPU performs the staging copies.
	wire := send * t.P.BounceFactor / bw
	staging := send / (t.P.HostCopyGBps * gb)
	return lat + wire + staging
}

// AllToAllBandwidth reports the algorithm bandwidth (perRankBytes / time) of
// one all_to_all, in GB/s — the metric of Fig 3b.
func (t *Topology) AllToAllBandwidth(perRankBytes int64) float64 {
	d := t.AllToAll(perRankBytes)
	if d == 0 {
		return 0
	}
	return float64(perRankBytes) / d / gb
}

// CPUGather returns the time for the CPU-involved cache-miss path: the GPU
// ships keys up, CPU software gathers rows from host memory into a staging
// buffer, and the result is DMA-ed back down (Fig 2b steps 1 and 5, and the
// left bars of Fig 10).
func (t *Topology) CPUGather(rows int, rowBytes int64, flows int) float64 {
	bytes := int64(rows) * rowBytes
	cpu := t.P.CPUMissFixed + float64(rows)*t.P.CPUMissPerKey
	gather := float64(bytes) / (t.P.HostMemGBps * gb)
	staging := float64(bytes) / (t.P.HostCopyGBps * gb)
	dma := t.DMA(bytes, flows)
	return cpu + gather + staging + dma
}

// UVAGather returns the time for a UVA zero-copy gather of `rows` rows
// straight from host memory inside one GPU kernel — no CPU involvement, no
// staging copies (the right bars of Fig 10). Returns an error when the part
// cannot address host memory.
func (t *Topology) UVAGather(rows int, rowBytes int64, flows int) (float64, error) {
	if !t.GPU.UVAToHost {
		return 0, fmt.Errorf("hw: %s does not support UVA to host memory", t.GPU.Name)
	}
	bytes := float64(rows) * float64(rowBytes)
	bw := t.P.UVARandomBWGBps * gb
	if shared := t.sharedLinkBW(flows); shared < bw {
		bw = shared
	}
	return t.P.UVALatency + bytes/bw, nil
}

// UVMFetch returns the time for the PyTorch-UVM baseline to fault in `rows`
// embedding rows: every touched row drags a whole UVMPageBytes page across
// the link (§4.2 — the reason UVM is two orders of magnitude slower).
func (t *Topology) UVMFetch(rows int, rowBytes int64, flows int) float64 {
	if rowBytes > t.P.UVMPageBytes {
		// A row spanning multiple pages faults each page.
		pages := (rowBytes + t.P.UVMPageBytes - 1) / t.P.UVMPageBytes
		rows *= int(pages)
	}
	bytes := int64(rows) * t.P.UVMPageBytes
	return float64(rows)*t.P.UVMFaultLatency + float64(bytes)/t.sharedLinkBW(flows)
}

// CacheAccess returns the time for one GPU to read/write `rows` rows in its
// own device-memory cache (hash probe + row copy at device bandwidth).
func (t *Topology) CacheAccess(rows int, rowBytes int64) float64 {
	// Hash-table probing is random access: derate device bandwidth.
	bw := t.GPU.MemBWGBps * gb * 0.25
	return t.P.KernelLatency + float64(rows)*float64(rowBytes)*2/bw
}

// Compute returns the time for `flops` floating-point operations of dense
// DNN work on one GPU.
func (t *Topology) Compute(flops float64) float64 {
	return t.P.KernelLatency + flops/(t.GPU.FP32TFLOPS*1e12*t.P.ComputeEfficiency)
}
