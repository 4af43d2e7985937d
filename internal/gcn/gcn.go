// Package gcn is a timing simulator for a GCN-class GPU whose
// compute-unit count, core clock, and memory clock are configurable —
// the substitute for the reconfigurable hardware used in "A Taxonomy of
// GPGPU Performance Scaling" (IISWC 2015).
//
// Two engines share one performance model:
//
//   - The round engine (Simulate) treats execution as batches of
//     resident workgroups and solves each batch's duration from four
//     bounds (issue throughput, L2 bandwidth, DRAM bandwidth, memory
//     latency x concurrency). It is fast enough to run the paper's
//     267-kernel x 891-configuration sweep in seconds.
//   - The detailed engine (SimulateDetailed) dispatches workgroups
//     continuously and advances execution in small time quanta,
//     draining per-workgroup compute and memory work against shared
//     resources. It captures dispatch pipelining and tail effects the
//     round engine approximates, and serves as the fidelity baseline
//     in the ablation experiments.
//
// Neither engine tries to predict absolute hardware runtimes; they
// model the mechanisms that shape how runtime *responds* to the three
// hardware knobs, which is all the taxonomy consumes.
//
// Evaluation is two-phase: Prepare hoists everything a kernel needs
// that does not depend on the configuration (validation, lowering,
// derived geometry, demand factors) to once per kernel, and the
// per-engine (*Prepared).Eval* methods evaluate single configurations
// against that state; see prepared.go. The Simulate* functions remain
// the one-shot per-cell entry points and run the same cores.
package gcn

import (
	"errors"
	"fmt"

	"gpuscale/internal/hw"
	"gpuscale/internal/kernel"
	"gpuscale/internal/memory"
)

// ErrDoesNotFit reports a kernel whose single workgroup exceeds the
// resources of one compute unit.
var ErrDoesNotFit = errors.New("gcn: workgroup does not fit on a compute unit")

// ErrBudget reports an evaluation that would exceed an engine's fixed
// work budget (the wave engine's event cap). The overrun is a pure
// function of the kernel and configuration, so retrying cannot help.
var ErrBudget = errors.New("gcn: work budget exceeded")

// Bound names the resource that limited a simulated execution.
type Bound int

// Bounds, in the order the solver checks them.
const (
	// BoundCompute means VALU/LDS issue throughput dominated.
	BoundCompute Bound = iota
	// BoundDRAM means DRAM bandwidth dominated.
	BoundDRAM
	// BoundL2 means L2/interconnect bandwidth dominated.
	BoundL2
	// BoundLatency means memory latency x limited concurrency dominated.
	BoundLatency
	// BoundLaunch means fixed launch overhead dominated.
	BoundLaunch
)

var boundNames = [...]string{"compute", "dram", "l2", "latency", "launch"}

// String returns the lower-case bound name.
func (b Bound) String() string {
	if b < 0 || int(b) >= len(boundNames) {
		return fmt.Sprintf("bound(%d)", int(b))
	}
	return boundNames[b]
}

// Result reports one simulated kernel execution.
type Result struct {
	// TimeNS is the duration of one kernel invocation, including
	// launch overhead.
	TimeNS float64
	// KernelNS is TimeNS without launch overhead.
	KernelNS float64
	// Throughput is work-items retired per nanosecond — the
	// configuration-invariant performance metric the taxonomy uses.
	Throughput float64
	// AchievedGFLOPS is useful FLOPs divided by kernel time.
	AchievedGFLOPS float64
	// AchievedGBs is DRAM traffic divided by kernel time.
	AchievedGBs float64
	// HitRates is the cache behaviour at steady-state residency.
	HitRates memory.HitRates
	// OccupancyWaves is resident waves per CU at full residency.
	OccupancyWaves int
	// Bound is the dominant limiter over the whole execution.
	Bound Bound
	// BoundShare is the fraction of execution time attributed to the
	// dominant bound's batches.
	BoundShare float64
}

// EngineFunc is the signature every simulator engine shares: one
// kernel on one configuration to one Result. Simulate,
// SimulateDetailed, SimulateWave and SimulatePipeline all satisfy it;
// FuncRow adapts one to the RowEngine seam the sweep harness runs.
type EngineFunc func(*kernel.Kernel, hw.Config) (Result, error)

// L2BytesPerCoreCycle is the aggregate L2/interconnect bandwidth in
// bytes per core cycle (16 slices x 64 B). At 1 GHz this yields
// ~1 TB/s, in line with GCN-generation parts.
const L2BytesPerCoreCycle = 1024

// l2BandwidthGBs returns L2 bandwidth for a configuration; it lives in
// the core clock domain and is independent of enabled CU count.
func l2BandwidthGBs(cfg hw.Config) float64 {
	return L2BytesPerCoreCycle * cfg.CoreClockMHz / 1000
}

// barrierIssueFactor inflates issue time for barrier-heavy kernels:
// every barrier drains the wavefront pipelines of the workgroup.
func barrierIssueFactor(k *kernel.Kernel) float64 {
	return 1 + 0.08*float64(k.BarriersPerWave)
}

// barrierConcurrencyFactor reduces usable memory concurrency: waves
// parked at a barrier stop issuing memory requests.
func barrierConcurrencyFactor(k *kernel.Kernel) float64 {
	return 1 / (1 + 0.10*float64(k.BarriersPerWave))
}

// demand aggregates the per-workgroup resource demands of a kernel on
// one configuration. Prepared.demandFor recombines the prepared
// config-independent factors with one configuration's clock to build
// it; all engines consume it.
type demand struct {
	wavesPerWG      int
	issueNSPerWG    float64 // CU-exclusive issue time for one WG
	accessesPerWG   float64
	transBytesPerWG float64
	flopsPerWG      float64
}
