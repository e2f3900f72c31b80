// Package hw models the hardware substrate the paper evaluates on: GPUs
// (datacenter and commodity), PCIe 4.0 links, the CPU root complex, host
// memory, and the capability differences that drive Frugal's design — PCIe
// peer-to-peer support and the (restricted) Unified Virtual Addressing
// feature.
//
// The model is analytic and runs on virtual time: every primitive returns
// the number of simulated seconds it would take, derived from the published
// bandwidth/latency/TFLOPS characteristics (Table 1 of the paper) plus a
// small set of calibration constants. The point of the model is to
// reproduce the *relative* behaviour the paper measures — no-P2P traffic
// bouncing through host memory, root-complex saturation, the latency gap
// between CPU-involved copies and UVA zero-copy reads — not cycle accuracy.
package hw

import "fmt"

// Class distinguishes datacenter parts (NVLink/P2P capable) from commodity
// parts (no P2P, restricted UVA).
type Class int

const (
	// Datacenter GPUs (A100, A30): PCIe P2P, full UVA, optional NVLink.
	Datacenter Class = iota
	// Commodity GPUs (RTX 3090/4090): no P2P; UVA only towards host memory.
	Commodity
)

func (c Class) String() string {
	switch c {
	case Datacenter:
		return "datacenter"
	case Commodity:
		return "commodity"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// GPUSpec describes one GPU model. Numbers follow Table 1 of the paper and
// the public spec sheets for the parts the evaluation uses (A30, RTX 3090).
type GPUSpec struct {
	Name  string
	Class Class

	FP16TFLOPS float64 // tensor FP16 throughput
	FP32TFLOPS float64 // tensor FP32 throughput

	MemGB     float64 // device memory capacity
	MemBWGBps float64 // device memory bandwidth
	LinkGBps  float64 // unidirectional host-link bandwidth (PCIe or NVLink)
	NVLink    bool    // true when the link column is NVLink, not PCIe
	PCIeP2P   bool    // PCIe peer-to-peer supported
	UVAToPeer bool    // UVA load/store into *other GPUs'* memory
	UVAToHost bool    // UVA load/store into host memory
	PriceUSD  float64
}

// DollarPerFP32TFLOPS is the cost-performance metric of Table 1.
func (g GPUSpec) DollarPerFP32TFLOPS() float64 {
	if g.FP32TFLOPS == 0 {
		return 0
	}
	return g.PriceUSD / g.FP32TFLOPS
}

// Catalog of the GPUs the paper discusses. Prices are the ones the paper
// quotes (Table 1 for A100/4090, §4.5 for A30/3090).
var (
	A100 = GPUSpec{
		Name: "A100", Class: Datacenter,
		FP16TFLOPS: 312, FP32TFLOPS: 156,
		MemGB: 80, MemBWGBps: 2039, LinkGBps: 900, NVLink: true,
		PCIeP2P: true, UVAToPeer: true, UVAToHost: true,
		PriceUSD: 16000,
	}
	A30 = GPUSpec{
		Name: "A30", Class: Datacenter,
		FP16TFLOPS: 165, FP32TFLOPS: 82,
		MemGB: 24, MemBWGBps: 933, LinkGBps: 32, NVLink: false,
		PCIeP2P: true, UVAToPeer: true, UVAToHost: true,
		PriceUSD: 5885,
	}
	RTX3090 = GPUSpec{
		Name: "RTX 3090", Class: Commodity,
		FP16TFLOPS: 142, FP32TFLOPS: 35.6,
		MemGB: 24, MemBWGBps: 936, LinkGBps: 32, NVLink: false,
		PCIeP2P: false, UVAToPeer: false, UVAToHost: true,
		PriceUSD: 1310,
	}
	RTX4090 = GPUSpec{
		Name: "RTX 4090", Class: Commodity,
		FP16TFLOPS: 330, FP32TFLOPS: 83,
		MemGB: 24, MemBWGBps: 1008, LinkGBps: 64, NVLink: false,
		PCIeP2P: false, UVAToPeer: false, UVAToHost: true,
		PriceUSD: 1600,
	}
)

// Specs returns the catalog in Table 1 / evaluation order.
func Specs() []GPUSpec { return []GPUSpec{A100, RTX4090, A30, RTX3090} }
