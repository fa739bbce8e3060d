// Package gkgpu is the core of the reproduction: the GateKeeper-GPU
// pre-alignment filtering engine of Sections 3.1-3.4, built on the simulated
// CUDA runtime (package cuda) and the improved GateKeeper kernel (package
// filter).
//
// The engine follows the paper's four steps: (1) system configuration —
// compute the per-thread memory load and the largest batch of filtrations
// the device's free global memory sustains; (2) resource allocation —
// unified-memory buffers for reads, candidate segments, undefined flags and
// results; (3) preprocessing — 2-bit encoding on the host or inside the
// kernel, batching many reads per kernel call; (4) the kernel itself — one
// logical thread per filtration, results written back through unified
// memory, with memory advice and asynchronous prefetch on supporting
// devices.
//
// Two execution paths are offered. Engine.FilterPairs is the paper's
// one-shot pipeline: synchronized rounds in which every device receives a
// weighted share of the batch and the host charges encode, transfer and
// kernel time sequentially, reproducing the measured FilterSeconds of
// Section 4.3. Engine.FilterStream is the throughput-oriented extension: an
// asynchronous, double-buffered pipeline in which each device owns two
// buffer sets so the parallel host-encode pool fills batch N+1 while the
// kernel consumes batch N (the prefetch streams drive the overlap), with
// bounded in-flight batches, order-preserving results, and support for many
// concurrent producers feeding one input channel. Decisions are identical
// between the two paths; only the modelled timing differs, because the
// streaming pipeline hides host work behind kernel execution.
//
// The index-named mrFAST integration is one-shot: Engine.FilterCandidates
// filters (read, location) candidates against the unified-memory reference
// loaded by SetReference, with each read encoded once and reference
// segments extracted by the kernel from the device-resident encoded
// reference. It shares FilterPairs' round loop, so both one-shot paths and
// the stream keep one fault contract: transient faults retry, a lost
// device is quarantined and its work moves to the survivors with identical
// decisions, and only losing every device fails the call.
package gkgpu

import (
	"fmt"

	"repro/internal/cuda"
)

// EncodingActor selects which processor performs the 2-bit encoding, the
// paper's central deployment trade-off (Section 3.3, Figure 6): encoding on
// the host shrinks transfers and speeds the kernel, encoding on the device
// parallelizes the packing and wins on end-to-end filter time.
type EncodingActor int

// Encoding actors.
const (
	EncodeOnDevice EncodingActor = iota
	EncodeOnHost
)

func (a EncodingActor) String() string {
	if a == EncodeOnHost {
		return "host"
	}
	return "device"
}

// Setup bundles the host-side characteristics of the paper's two
// experimental platforms; the GPU side lives in cuda.DeviceSpec.
type Setup struct {
	Name string
	// HostFactor scales host preparation costs relative to Setup 1's
	// Xeon Gold 6140.
	HostFactor float64
	// CPUFactor scales the GateKeeper-CPU baseline relative to Setup 1.
	CPUFactor float64
	// CPUCores is the core count used for the multicore CPU baseline.
	CPUCores int
	// EncodeWorkers is the host-encode worker-pool width of the modelled
	// platform, used by the streaming path's pipelined cost model (the real
	// pool is sized to the simulating machine, but modelled clocks must not
	// depend on it). Zero behaves as 1.
	EncodeWorkers int
}

// Setup1 returns the paper's primary platform: Xeon Gold 6140 host with
// GTX 1080 Ti devices (PCIe 3, prefetch-capable).
func Setup1() Setup {
	return Setup{Name: "Setup 1", HostFactor: 1.0, CPUFactor: 1.0, CPUCores: 12, EncodeWorkers: 12}
}

// Setup2 returns the secondary platform: Xeon E5-2643 host with Tesla K20X
// devices (PCIe 2, no prefetch).
func Setup2() Setup {
	return Setup{Name: "Setup 2", HostFactor: 1.2, CPUFactor: 1.08, CPUCores: 12, EncodeWorkers: 12}
}

// Config parametrizes an Engine. ReadLen and MaxE mirror the CUDA build's
// compile-time constants: the kernel's bitmask arrays are fixed-size, so the
// engine is built for one geometry and rejects others at run time.
type Config struct {
	ReadLen  int
	MaxE     int
	Encoding EncodingActor
	Setup    Setup
	Model    cuda.CostModel

	// RegsPerThread and ThreadsPerBlock define the launch geometry;
	// GateKeeper-GPU uses 40-48 registers and maximizes the block size to
	// maximize the batch (Section 5.4.1). Zero values take the defaults.
	RegsPerThread   int
	ThreadsPerBlock int

	// MaxBatchPairs caps the per-device batch regardless of free memory
	// (useful to keep simulation memory bounded); zero means no extra cap.
	MaxBatchPairs int

	// StreamBatchPairs is the dispatch granularity of FilterStream: how many
	// pairs accumulate before a batch is handed to a device. Smaller batches
	// lower latency and spread load across devices; larger batches amortize
	// the per-launch overhead. Zero picks a default, and values above the
	// smallest per-device batch capacity are clamped to it.
	StreamBatchPairs int

	// Fault tunes the engine's retry/quarantine reaction to device failures,
	// on FilterStream and on the one-shot FilterPairs/FilterCandidates
	// rounds alike; the zero value takes the documented defaults.
	Fault FaultPolicy
}

func (c *Config) applyDefaults() {
	if c.RegsPerThread == 0 {
		c.RegsPerThread = 48
	}
	if c.ThreadsPerBlock == 0 {
		c.ThreadsPerBlock = 1024
	}
	if c.Model == (cuda.CostModel{}) {
		c.Model = cuda.DefaultCostModel()
	}
	if c.Setup.Name == "" {
		c.Setup = Setup1()
	}
	if c.MaxBatchPairs == 0 {
		c.MaxBatchPairs = 1 << 20
	}
	c.Fault.applyDefaults()
}

// Validate rejects configurations the CUDA build could not compile.
func (c Config) Validate() error {
	if c.ReadLen <= 0 || c.ReadLen > 1024 {
		return fmt.Errorf("gkgpu: read length %d outside (0,1024]", c.ReadLen)
	}
	if c.MaxE < 0 || c.MaxE > c.ReadLen {
		return fmt.Errorf("gkgpu: error threshold %d outside [0,%d]", c.MaxE, c.ReadLen)
	}
	if c.StreamBatchPairs < 0 {
		return fmt.Errorf("gkgpu: negative stream batch size %d", c.StreamBatchPairs)
	}
	return nil
}

// Result is one filtration outcome in the result buffer. Estimate follows
// the kernel's hot-path semantics: for accepted pairs it is the sealed
// early-accept upper bound (<= the threshold), not the exhaustive windowed
// count — the engine consumes only the decision, as the paper's pipeline
// does.
type Result struct {
	Accept    bool
	Undefined bool
	Estimate  uint16
}

// Pair is one read/candidate-segment input.
type Pair struct {
	Read, Ref []byte
}

// resultStride is the per-pair footprint in the result buffer: accept flag,
// undefined flag, and a 16-bit edit-distance approximation.
const resultStride = 4
