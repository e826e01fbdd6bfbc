package hardware

import (
	"math"

	"harl/internal/schedule"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/xrand"
)

// Simulator maps a schedule to a deterministic execution time on a platform.
// The same schedule always yields the same time (texture included), so search
// results are exactly reproducible; per-measurement noise lives in Measurer.
// Exec and GFLOPS only read the platform description and the schedule, so a
// single Simulator may be shared by any number of concurrent workers.
type Simulator struct {
	Plat *Platform

	platHash uint64
}

// NewSimulator builds a simulator for the platform.
func NewSimulator(p *Platform) *Simulator {
	return &Simulator{Plat: p, platHash: hashString(p.Name)}
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Exec returns the modeled execution time in seconds of one run of the
// scheduled subgraph (all stages, fused or standalone).
func (sim *Simulator) Exec(s *schedule.Schedule) float64 {
	p := sim.Plat
	sk := s.Sk
	g := sk.Graph
	main := sk.MainStage()

	// ---- gather structural quantities of the tiled stage -------------------
	nAxes := len(s.SpatialTiles)
	prodLevel := func(level int) float64 {
		pr := 1.0
		for _, row := range s.SpatialTiles {
			pr *= float64(row[level])
		}
		return pr
	}
	n0, n1, n2, n3 := prodLevel(0), prodLevel(1), prodLevel(2), prodLevel(3)
	nR0, nR1 := 1.0, 1.0
	for _, row := range s.ReduceTiles {
		nR0 *= float64(row[0])
		nR1 *= float64(row[1])
	}
	totalPoints := n0 * n1 * n2 * n3 * nR0 * nR1

	// Fusion bookkeeping: inlined elementwise stages contribute FLOPs to the
	// tiled loop nest and avoid an intermediate-tensor round trip scaled by
	// the compute-at depth; standalone stages run as separate passes.
	caMax := sk.ComputeAtCandidates() - 1
	fuseEff := 0.0
	if caMax > 0 {
		fuseEff = float64(s.ComputeAt) / float64(caMax)
	}
	flops := main.FLOPs()
	extraMemTraffic := 0.0 // bytes added to the memory boundary
	standalone := 0.0      // seconds of separate stage passes
	for i, st := range g.Stages {
		if i == sk.Main {
			continue
		}
		switch sk.Decisions[i] {
		case sketch.Inlined:
			flops += st.FLOPs()
			// Unsaved intermediate traffic when the fusion point is shallow:
			// the producer's output is written and re-read at (1-fuseEff).
			inter := float64(main.OutputBytes())
			extraMemTraffic += 2 * inter * (1 - fuseEff)
		default:
			standalone += sim.standaloneStageTime(st)
		}
	}

	// ---- parallelism --------------------------------------------------------
	par := 1.0
	for a := 0; a < s.ParallelFuse && a < nAxes; a++ {
		par *= float64(s.SpatialTiles[a][0])
		if p.GPU {
			// GPU parallel hierarchy exposes the block and thread levels.
			par *= float64(s.SpatialTiles[a][1])
		}
	}
	rfCombine := 0.0
	if sk.RFactor && len(s.ReduceTiles) > 0 {
		r0 := float64(s.ReduceTiles[0][0])
		par *= r0
		// Cross-partial combine pass: one extra output-sized reduction.
		rfCombine = float64(main.OutputBytes())*r0/p.BWBytes[2] + p.LaunchOverheadSec
	}
	if par < 1 {
		par = 1
	}
	cores := float64(p.Cores)
	waves := math.Ceil(par / cores)
	speedup := par / waves
	if speedup < 1 {
		speedup = 1
	}
	usedCores := math.Min(par, cores)

	// ---- vectorization, registers, unrolling -------------------------------
	innermost := 1.0
	if nAxes > 0 {
		innermost = float64(s.SpatialTiles[nAxes-1][sketch.SpatialLevels-1])
	}
	vw := float64(p.VecWidth)
	vecEff := innermost / (math.Ceil(innermost/vw) * vw)

	microPoints := 1.0
	for _, row := range s.SpatialTiles {
		microPoints *= float64(row[sketch.SpatialLevels-1])
	}
	regPenalty := 1.0
	if microBytes := microPoints * 4; microBytes > 2048 {
		// Register spill: the micro-tile accumulator no longer fits the
		// architectural register file.
		regPenalty = math.Min(microBytes/2048, 12)
	}
	if main.HasDataReuse && microPoints < 8 {
		// FMA latency exposure: a tiny accumulator tile cannot hide the
		// multiply-add dependency chain.
		regPenalty *= math.Sqrt(8 / math.Max(microPoints, 1))
	}

	unrollDepth := 1.0
	if s.UnrollIdx < len(p.UnrollDepths) {
		if d := p.UnrollDepths[s.UnrollIdx]; d > 0 {
			unrollDepth = float64(d)
		}
	}
	innerIters := totalPoints / math.Max(1, innermost) * math.Ceil(innermost/vw)
	effUnroll := math.Min(unrollDepth, math.Max(1, nR1*microPoints))
	icachePenalty := 1 + math.Max(0, unrollDepth*math.Min(microPoints, 64)-4096)/32768

	// ---- roofline: compute vs per-boundary cache traffic --------------------
	tCompute := flops / (p.CoreFlops() * vecEff) * regPenalty * icachePenalty / speedup

	var tL1, tL2, tMem float64
	if main.HasDataReuse {
		sp3 := make([]int, nAxes)
		sp23 := make([]int, nAxes)
		sp123 := make([]int, nAxes)
		for a, row := range s.SpatialTiles {
			sp3[a] = row[3]
			sp23[a] = row[2] * row[3]
			sp123[a] = row[1] * row[2] * row[3]
		}
		red1 := make([]int, len(s.ReduceTiles))
		redF := make([]int, len(s.ReduceTiles))
		for r, row := range s.ReduceTiles {
			red1[r] = row[1]
			redF[r] = row[0] * row[1]
		}
		// Per-access traffic carries a cache-line waste factor: when the tile
		// extent of the tensor's contiguous (last) dimension is small, whole
		// 64-byte lines are fetched for a few useful elements. Footprints
		// (for capacity checks) use the raw bytes; traffic uses the inflated
		// bytes. This is what makes tile *shape*, not just tile volume,
		// matter per tensor.
		// Spatial axes whose outer split feeds the parallel loop: accesses
		// touching them have a distinct footprint per concurrent chunk, while
		// accesses independent of them (e.g. the B matrix when only the rows
		// of a GEMM are parallelized) are shared across cores in the LLC.
		privAxis := make([]bool, nAxes)
		for a := 0; a < s.ParallelFuse && a < nAxes; a++ {
			if s.SpatialTiles[a][0] > 1 || (p.GPU && s.SpatialTiles[a][1] > 1) {
				privAxis[a] = true
			}
		}
		in1, in2, in3 := 0.0, 0.0, 0.0
		fp1, fp2, fp3 := 0.0, 0.0, 0.0
		fp3Shared := 0.0
		for _, acc := range main.Inputs {
			b1 := float64(main.AccessTileBytes(acc, sp3, red1))
			b2 := float64(main.AccessTileBytes(acc, sp23, red1))
			b3 := float64(main.AccessTileBytes(acc, sp123, redF))
			fp1 += b1
			fp2 += b2
			fp3 += b3
			if !accessTouches(acc, privAxis) {
				fp3Shared += b3
			}
			t1, f1 := lastDim(main, acc, sp3, red1)
			t2, f2 := lastDim(main, acc, sp23, red1)
			t3, f3 := lastDim(main, acc, sp123, redF)
			in1 += b1 * lineWaste(t1, f1)
			in2 += b2 * lineWaste(t2, f2)
			in3 += b3 * lineWaste(t3, f3)
		}
		out1, out2, out3 := tileBytes(sp3), tileBytes(sp23), tileBytes(sp123)
		lastFull := float64(main.Spatial[nAxes-1].Extent)
		outW1 := out1 * lineWaste(float64(sp3[nAxes-1]), lastFull)
		outW2 := out2 * lineWaste(float64(sp23[nAxes-1]), lastFull)
		outW3 := out3 * lineWaste(float64(sp123[nAxes-1]), lastFull)

		// Cache write keeps the accumulating output tile resident, removing
		// most of its inner-boundary traffic when composed deep enough.
		cw := 1.0
		if sk.CacheWrite {
			cw = 1 - 0.7*fuseEff
		}
		w1 := fp1 + out1
		w2 := fp2 + out2
		w3 := fp3 + out3

		loads1 := n0 * n1 * nR0 * n2
		loads2 := n0 * n1 * nR0
		loads3 := n0

		traffic1 := loads1 * (in1 + outW1*cw)
		traffic2 := loads2 * (in2 + outW2*cw)
		traffic3 := loads3*(in3+outW3) + extraMemTraffic

		// Capacity spills push traffic outward; overflowing a level by k×
		// forces roughly k× refills of the level below. The last level is
		// shared: every concurrent chunk's private footprint resides at once.
		if w1 > p.CacheBytes[0] {
			traffic2 *= math.Min(w1/p.CacheBytes[0], 48)
		}
		if w2 > p.CacheBytes[1] {
			traffic3 *= math.Min(w2/p.CacheBytes[1], 48)
		}
		w3Agg := (w3-fp3Shared)*usedCores + fp3Shared
		if w3Agg > p.CacheBytes[2] {
			traffic3 *= math.Min(w3Agg/p.CacheBytes[2], 16)
		}

		tL1 = traffic1 / (p.BWBytes[0] * usedCores)
		tL2 = traffic2 / p.BWBytes[1]
		tMem = traffic3 / p.BWBytes[2]
	} else {
		// Streaming stage: every input and the output cross memory once.
		bytes := float64(main.InputBytes()+main.OutputBytes()) + extraMemTraffic
		tMem = bytes / p.BWBytes[2]
	}

	loopOvh := innerIters * p.LoopOverheadSec / effUnroll / speedup
	spawn := par*p.SpawnOverheadSec + p.LaunchOverheadSec

	// Compose the roofline terms with a generalized mean rather than a hard
	// max: real machines overlap compute and memory imperfectly, so easing
	// pressure on a non-critical resource still helps a little. This keeps a
	// useful gradient past the compute-bound knee.
	t := pnorm(tCompute, tL1, tL2, tMem) + loopOvh + spawn + rfCombine + standalone

	// Deterministic landscape texture.
	tex := 1 + p.TextureAmp*(2*xrand.HashUnit(s.Key(), sim.platHash)-1)
	t *= tex
	if t < 1e-7 {
		t = 1e-7
	}
	return t
}

// accessTouches reports whether the access indexes any spatial axis marked
// private to a parallel chunk.
func accessTouches(acc texpr.Access, privAxis []bool) bool {
	for _, d := range acc.Dims {
		if !d.Reduce && privAxis[d.Iter] {
			return true
		}
	}
	return false
}

// lineWaste returns the traffic inflation of a strided access whose
// contiguous-dimension tile extent covers only part of a 64-byte cache line.
// The waste is measured against the dimension's full extent: a dimension that
// is short in the tensor itself (e.g. a 3-wide convolution kernel) is packed
// contiguously by layout and carries no schedule-attributable waste.
func lineWaste(tileExtent, fullExtent float64) float64 {
	limit := math.Min(fullExtent*4, 64)
	useful := tileExtent * 4
	if useful >= limit {
		return 1
	}
	if useful < 4 {
		useful = 4
	}
	return limit / useful
}

// lastDim returns the tile extent and full extent of an access's last
// (contiguous) dimension under the given tile scope.
func lastDim(st *texpr.Stage, acc texpr.Access, spTile, redTile []int) (tile, full float64) {
	if len(acc.Dims) == 0 {
		return 64, 64
	}
	d := acc.Dims[len(acc.Dims)-1]
	if d.Reduce {
		return float64(redTile[d.Iter]), float64(st.Reduce[d.Iter].Extent)
	}
	return float64(spTile[d.Iter]), float64(st.Spatial[d.Iter].Extent)
}

// pnorm is the p-generalized mean composition of roofline terms (p = 2.5
// sits between additive and hard-max resource models).
func pnorm(terms ...float64) float64 {
	const p = 2.5
	s := 0.0
	for _, t := range terms {
		if t > 0 {
			s += math.Pow(t, p)
		}
	}
	return math.Pow(s, 1/p)
}

func tileBytes(tile []int) float64 {
	b := 4.0
	for _, e := range tile {
		b *= float64(e)
	}
	return b
}

// standaloneStageTime models an unfused auxiliary stage (elementwise pass,
// pooling, softmax normalization) as a bandwidth/compute-bound streaming loop
// parallelized across all cores.
func (sim *Simulator) standaloneStageTime(st *texpr.Stage) float64 {
	p := sim.Plat
	bytes := float64(st.InputBytes() + st.OutputBytes())
	tMem := bytes / p.BWBytes[2]
	tComp := st.FLOPs() / (p.PeakFlops() * 0.5) // scalar-ish epilogue code
	return math.Max(tMem, tComp) + p.LaunchOverheadSec
}
