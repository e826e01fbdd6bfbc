// Package hardware provides the measurement substrate of the HARL
// reproduction: parametric models of the paper's two evaluation platforms
// (an Intel Xeon 6226R-class CPU and an NVIDIA RTX 3090-class GPU), an
// analytical performance simulator that maps a schedule to a deterministic
// execution time, and a Measurer that adds seeded measurement noise and
// accounts simulated search time (compile overhead, repeat rule r_min,
// search-computation cost).
//
// The simulator is the substitution for real hardware: its role is not
// absolute accuracy but a performance landscape with the same structure real
// hardware exhibits — multi-level cache reuse rewards balanced tile
// pyramids, vector units reward aligned innermost loops, parallel
// speedup saturates at the core count and suffers from load imbalance and
// spawn overhead, unrolling trades loop overhead against instruction-cache
// pressure, and operator fusion removes intermediate-tensor traffic. A
// deterministic hash-based "texture" term adds the measurement ruggedness
// that makes purely greedy search wasteful (the paper's Observations 1-2).
package hardware

// Platform describes one execution target of the auto-scheduler.
type Platform struct {
	Name string
	GPU  bool

	// Cores is the number of independent parallel execution contexts
	// (physical cores for the CPU; SM sub-partitions for the GPU).
	Cores int
	// VecWidth is the fp32 SIMD width (AVX-512 lanes / warp lanes).
	VecWidth int
	// FlopsPerLane is FLOPs per cycle per lane (2 with FMA).
	FlopsPerLane float64
	// ClockGHz is the sustained clock.
	ClockGHz float64

	// CacheBytes holds the capacities of the three modeled cache scopes:
	// [0] innermost per-core (L1 / GPU shared memory),
	// [1] mid-level per-core (L2 / GPU L1+register file budget),
	// [2] last-level shared (L3 / GPU L2).
	CacheBytes [3]float64
	// BWBytes holds the bandwidths feeding each boundary in bytes/sec:
	// [0] L2→L1 per core, [1] LLC→L2 shared, [2] memory→LLC shared.
	BWBytes [3]float64

	// SpawnOverheadSec is the cost of dispatching one parallel chunk.
	SpawnOverheadSec float64
	// LaunchOverheadSec is a fixed per-execution cost (kernel launch /
	// parallel-region entry).
	LaunchOverheadSec float64
	// LoopOverheadSec is the branch/bookkeeping cost per innermost iteration
	// before unrolling.
	LoopOverheadSec float64

	// UnrollDepths is the auto-unroll candidate list (Appendix A.1):
	// CPU {0,16,64,512}, GPU {0,16,64,512,1024}.
	UnrollDepths []int

	// TextureAmp is the relative amplitude of the deterministic landscape
	// texture; NoiseAmp is the relative std-dev of per-measurement noise.
	TextureAmp float64
	NoiseAmp   float64
}

// PeakFlops returns the machine's peak fp32 throughput in FLOP/s.
func (p *Platform) PeakFlops() float64 {
	return float64(p.Cores) * float64(p.VecWidth) * p.FlopsPerLane * p.ClockGHz * 1e9
}

// CoreFlops returns one core's peak fp32 throughput in FLOP/s.
func (p *Platform) CoreFlops() float64 {
	return float64(p.VecWidth) * p.FlopsPerLane * p.ClockGHz * 1e9
}

// CPUXeon6226R models the paper's CPU platform: Intel Xeon 6226R, 32 cores at
// 2.9 GHz with AVX-512 (Section 6.1 / Appendix A.2).
func CPUXeon6226R() *Platform {
	return &Platform{
		Name:              "cpu-xeon6226r",
		Cores:             32,
		VecWidth:          16, // AVX-512 fp32 lanes
		FlopsPerLane:      2,  // FMA
		ClockGHz:          2.9,
		CacheBytes:        [3]float64{32 << 10, 1 << 20, 22 << 20},
		BWBytes:           [3]float64{180e9, 400e9, 110e9},
		SpawnOverheadSec:  4e-7,
		LaunchOverheadSec: 3e-6,
		LoopOverheadSec:   6e-10,
		UnrollDepths:      []int{0, 16, 64, 512},
		TextureAmp:        0.02,
		NoiseAmp:          0.005,
	}
}

// GPURTX3090 models the paper's GPU platform: NVIDIA GeForce RTX 3090
// (82 SMs, ~35 TFLOP/s fp32, 936 GB/s GDDR6X).
func GPURTX3090() *Platform {
	return &Platform{
		Name:              "gpu-rtx3090",
		GPU:               true,
		Cores:             328, // 82 SMs × 4 warp schedulers
		VecWidth:          32,  // warp lanes
		FlopsPerLane:      2,
		ClockGHz:          1.66,
		CacheBytes:        [3]float64{128 << 10, 256 << 10, 6 << 20},
		BWBytes:           [3]float64{600e9, 2000e9, 936e9},
		SpawnOverheadSec:  5e-9,
		LaunchOverheadSec: 8e-6,
		LoopOverheadSec:   5e-11,
		UnrollDepths:      []int{0, 16, 64, 512, 1024},
		TextureAmp:        0.02,
		NoiseAmp:          0.005,
	}
}

// platformRegistry maps every accepted short name to its constructor, in
// presentation order. New platforms register here; PlatformNames and ByName
// both derive from it so error messages can never drift from the actual set.
var platformRegistry = []struct {
	short, full string
	mk          func() *Platform
}{
	{"cpu", "cpu-xeon6226r", CPUXeon6226R},
	{"gpu", "gpu-rtx3090", GPURTX3090},
}

// PlatformNames lists the accepted short platform names in registry order.
func PlatformNames() []string {
	out := make([]string, len(platformRegistry))
	for i, e := range platformRegistry {
		out[i] = e.short
	}
	return out
}

// ByName resolves a short name ("cpu", "gpu") or a full platform name to a
// Platform, or nil if unknown.
func ByName(name string) *Platform {
	for _, e := range platformRegistry {
		if name == e.short || name == e.full {
			return e.mk()
		}
	}
	return nil
}
