package hardware

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"harl/internal/schedule"
	"harl/internal/sketch"
	"harl/internal/workload"
	"harl/internal/xrand"
)

func TestPlatformPeaks(t *testing.T) {
	cpu := CPUXeon6226R()
	// 32 cores × 16 lanes × 2 flops × 2.9 GHz ≈ 2.97 TFLOP/s.
	if p := cpu.PeakFlops(); math.Abs(p-2.97e12) > 0.05e12 {
		t.Fatalf("cpu peak %g", p)
	}
	gpu := gpuRTX3090()
	// RTX 3090 class: ~35 TFLOP/s fp32.
	if p := gpu.PeakFlops(); p < 30e12 || p > 40e12 {
		t.Fatalf("gpu peak %g", p)
	}
	if !gpu.GPU || cpu.GPU {
		t.Fatal("GPU flags wrong")
	}
}

func TestByName(t *testing.T) {
	if ByName("cpu") == nil || ByName("gpu") == nil {
		t.Fatal("cpu/gpu must resolve")
	}
	if ByName("tpu") != nil {
		t.Fatal("unknown platform must be nil")
	}
}

func TestUnrollDepths(t *testing.T) {
	// Appendix A.1: CPU {0,16,64,512}, GPU {0,16,64,512,1024}.
	cpu, gpu := CPUXeon6226R(), gpuRTX3090()
	if len(cpu.UnrollDepths) != 4 || cpu.UnrollDepths[3] != 512 {
		t.Fatalf("cpu unroll %v", cpu.UnrollDepths)
	}
	if len(gpu.UnrollDepths) != 5 || gpu.UnrollDepths[4] != 1024 {
		t.Fatalf("gpu unroll %v", gpu.UnrollDepths)
	}
}

func randSchedule(rng *xrand.RNG) *schedule.Schedule {
	g := workload.GEMM("g", 1, 512, 512, 512)
	sks := sketch.Generate(g)
	return schedule.NewRandom(sks[rng.Intn(len(sks))], 4, rng)
}

func TestExecDeterministic(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(1)
	for i := 0; i < 50; i++ {
		s := randSchedule(rng)
		if sim.Exec(s) != sim.Exec(s) {
			t.Fatal("Exec not deterministic")
		}
	}
}

func TestExecPositiveFinite(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(2)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		s := randSchedule(r)
		e := sim.Exec(s)
		return e > 0 && !math.IsInf(e, 0) && !math.IsNaN(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	_ = rng
}

func TestExecRespectsWork(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(3)
	small := workload.GEMM("s", 1, 128, 128, 128)
	large := workload.GEMM("l", 1, 1024, 1024, 1024)
	bestSmall, bestLarge := math.Inf(1), math.Inf(1)
	for i := 0; i < 3000; i++ {
		ss := schedule.NewRandom(sketch.Generate(small)[0], 4, rng)
		sl := schedule.NewRandom(sketch.Generate(large)[0], 4, rng)
		bestSmall = math.Min(bestSmall, sim.Exec(ss))
		bestLarge = math.Min(bestLarge, sim.Exec(sl))
	}
	// 512× more FLOPs should take much longer even at best.
	if bestLarge < 20*bestSmall {
		t.Fatalf("large gemm %.3g vs small %.3g: work not respected", bestLarge, bestSmall)
	}
}

func TestExecNeverBelowComputeBound(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(4)
	g := workload.GEMM("g", 1, 1024, 1024, 1024)
	lower := g.FLOPs() / sim.Plat.PeakFlops() * (1 - sim.Plat.TextureAmp) * 0.99
	for i := 0; i < 3000; i++ {
		s := schedule.NewRandom(sketch.Generate(g)[0], 4, rng)
		if e := sim.Exec(s); e < lower {
			t.Fatalf("exec %.3g below compute roofline %.3g", e, lower)
		}
	}
}

func TestParallelismHelps(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(5)
	g := workload.GEMM("g", 1, 1024, 1024, 1024)
	s := schedule.NewRandom(sketch.Generate(g)[0], 4, rng)
	// A deliberately serial variant vs a 64-chunk parallel variant.
	s.SpatialTiles[0] = []int{8, 4, 8, 4}
	s.SpatialTiles[1] = []int{8, 2, 4, 16}
	s.ReduceTiles[0] = []int{64, 16}
	serial := s.Clone()
	serial.ParallelFuse = 0
	parallel := s.Clone()
	parallel.ParallelFuse = 2
	if sim.Exec(parallel) >= sim.Exec(serial) {
		t.Fatal("64-way parallelism should beat serial execution")
	}
}

func TestVectorizationHelps(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(6)
	g := workload.GEMM("g", 1, 1024, 1024, 1024)
	s := schedule.NewRandom(sketch.Generate(g)[0], 4, rng)
	s.ParallelFuse = 2
	s.SpatialTiles[0] = []int{32, 4, 8, 1}
	s.ReduceTiles[0] = []int{64, 16}
	vec := s.Clone()
	vec.SpatialTiles[1] = []int{32, 2, 1, 16} // innermost 16 = vector width
	scalar := s.Clone()
	scalar.SpatialTiles[1] = []int{32, 16, 2, 1} // innermost 1
	if sim.Exec(vec) >= sim.Exec(scalar) {
		t.Fatal("vector-width innermost loop should beat scalar innermost")
	}
}

func TestTextureIsBounded(t *testing.T) {
	plat := CPUXeon6226R()
	simA := NewSimulator(plat)
	rng := xrand.New(7)
	s := randSchedule(rng)
	base := simA.Exec(s)
	// A texture-free platform gives the analytical time; the textured value
	// must stay within the configured amplitude.
	plain := *plat
	plain.TextureAmp = 0
	simB := NewSimulator(&plain)
	analytic := simB.Exec(s)
	if math.Abs(base-analytic)/analytic > plat.TextureAmp+1e-9 {
		t.Fatalf("texture out of bounds: %g vs %g", base, analytic)
	}
}

func TestGPUFasterOnBigGEMM(t *testing.T) {
	rng := xrand.New(8)
	g := workload.GEMM("g", 1, 1024, 1024, 1024)
	cpu, gpu := NewSimulator(CPUXeon6226R()), NewSimulator(gpuRTX3090())
	bestCPU, bestGPU := math.Inf(1), math.Inf(1)
	for i := 0; i < 4000; i++ {
		sc := schedule.NewRandom(sketch.Generate(g)[0], 4, rng)
		sg := schedule.NewRandom(sketch.Generate(g)[0], 5, rng)
		bestCPU = math.Min(bestCPU, cpu.Exec(sc))
		bestGPU = math.Min(bestGPU, gpu.Exec(sg))
	}
	if bestGPU >= bestCPU {
		t.Fatalf("gpu best %.3g should beat cpu best %.3g on 1024³ GEMM", bestGPU, bestCPU)
	}
}

// measure runs one trial the way search.Task does: reserve the schedule's
// repetition index, evaluate, commit.
func measure(m *Measurer, s *schedule.Schedule) float64 {
	noisy := m.NoisyExec(s, m.ReserveSeq(s.Key()))
	m.Commit(noisy)
	return noisy
}

func TestMeasurerNoiseAndAccounting(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(10)
	m := NewMeasurer(sim, rng.Split())
	s := randSchedule(rng)
	exact := sim.Exec(s)
	var devs float64
	for i := 0; i < 50; i++ {
		noisy := measure(m, s)
		devs += math.Abs(noisy-exact) / exact
		if noisy <= 0 {
			t.Fatal("non-positive measurement")
		}
	}
	// Noise should be small but non-zero on average.
	avg := devs / 50
	if avg == 0 || avg > 0.05 {
		t.Fatalf("noise average %.4f out of expected band", avg)
	}
	// Each measurement costs at least compile + r_min of repeats.
	if m.CostSec() < 50*(m.CompileSec) {
		t.Fatalf("cost %.1f too small", m.CostSec())
	}
}

// The split reserve/evaluate/commit API must agree with the measurement
// function itself, NoisyExecSeeded (what a fleet worker computes): each
// reservation of a schedule takes the next repetition index, and Commit
// charges compile time plus at least three repeats.
func TestMeasurerSplitAPIMatchesMeasure(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	s := randSchedule(xrand.New(14))
	m := NewMeasurer(sim, xrand.New(7))
	for seq := uint64(0); seq < 3; seq++ {
		if got, want := m.NoisyExec(s, m.ReserveSeq(s.Key())), NoisyExecSeeded(sim, s, m.NoiseSeed(), seq); got != want {
			t.Fatalf("repetition %d: split API %v, NoisyExecSeeded %v", seq, got, want)
		}
	}
	noisy := NoisyExecSeeded(sim, s, m.NoiseSeed(), 0)
	m.Commit(noisy)
	if want := m.CompileSec + math.Max(3, math.Ceil(m.RepeatMinSec/noisy))*noisy; m.CostSec() != want {
		t.Fatalf("Commit charged %v, want %v", m.CostSec(), want)
	}
}

func TestAddSearchCost(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	m := NewMeasurer(sim, xrand.New(1))
	m.AddSearchCost(2.5)
	if m.CostSec() != 2.5 {
		t.Fatalf("cost %.2f", m.CostSec())
	}
}

func TestFusionBeatsUnfused(t *testing.T) {
	// A conv+relu subgraph: the fused sketch at the deepest compute-at
	// position should beat the unfused variant with identical tiles.
	g := workload.Conv2DReLU("c", 1, 1, 56, 56, 64, 64, 3, 1, 1)
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(13)
	var fusedSk, unfusedSk *sketch.Sketch
	for _, sk := range sketch.Generate(g) {
		if sk.RFactor {
			continue
		}
		if sk.Decisions[sk.Main] == sketch.TiledFused {
			fusedSk = sk
		} else {
			unfusedSk = sk
		}
	}
	if fusedSk == nil || unfusedSk == nil {
		t.Skip("sketch set lacks fused/unfused pair")
	}
	// Paired comparison over identical tile configurations. Fusion helps
	// exactly when the tiled loop is efficient (the inlined epilogue inherits
	// the loop's vectorization and parallelism), so compare the best pair —
	// the regime an auto-scheduler actually operates in.
	bestFused, bestUnfused := math.Inf(1), math.Inf(1)
	for i := 0; i < 4000; i++ {
		sf := schedule.NewRandom(fusedSk, 4, rng)
		sf.ComputeAt = fusedSk.ComputeAtCandidates() - 1
		su := sf.Clone()
		su.Sk = unfusedSk
		su.ComputeAt = 0
		bestFused = math.Min(bestFused, sim.Exec(sf))
		bestUnfused = math.Min(bestUnfused, sim.Exec(su))
	}
	if bestFused >= bestUnfused {
		t.Fatalf("fusion should win at the top: fused %.3g vs unfused %.3g", bestFused, bestUnfused)
	}
}

// Measurement noise is derived per (schedule, repetition), so the measured
// value of a schedule does not depend on what was measured before it —
// the property that makes parallel measurement order-independent.
func TestMeasurerNoiseOrderIndependent(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	rng := xrand.New(13)
	a, b := randSchedule(rng), randSchedule(rng)
	if a.Key() == b.Key() {
		t.Fatal("want distinct schedules")
	}
	m1 := NewMeasurer(sim, xrand.New(99))
	m2 := NewMeasurer(sim, xrand.New(99))
	a1, b1 := measure(m1, a), measure(m1, b)
	b2, a2 := measure(m2, b), measure(m2, a) // reversed order
	if a1 != a2 || b1 != b2 {
		t.Fatalf("measurement order changed values: a %v/%v b %v/%v", a1, a2, b1, b2)
	}
	// Re-measuring the same schedule draws fresh noise (repetition index).
	if again := measure(m1, a); again == a1 {
		t.Fatal("repeated measurement must redraw noise")
	}
	// A different measurer seed gives a different noise stream.
	m3 := NewMeasurer(sim, xrand.New(100))
	if measure(m3, a) == a1 {
		t.Fatal("noise must depend on the measurer seed")
	}
}

// Concurrent measurement, cost charging and reads must be race-free (run
// under -race) and lose no trials: every schedule's repetition index was
// claimed once, and the budget equals a serial measurer's.
func TestMeasurerConcurrentUse(t *testing.T) {
	sim := NewSimulator(CPUXeon6226R())
	m := NewMeasurer(sim, xrand.New(15))
	const workers, each = 8, 25
	scheds := make([]*schedule.Schedule, workers*each)
	rng := xrand.New(16)
	for i := range scheds {
		scheds[i] = randSchedule(rng)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				measure(m, scheds[w*each+i])
				m.AddSearchCost(1e-6)
				m.AddCostModelQueries(2)
				_ = m.CostSec()
			}
		}(w)
	}
	wg.Wait()
	serial := NewMeasurer(sim, xrand.New(15))
	for _, s := range scheds {
		if seq := m.ReserveSeq(s.Key()); seq != 1 {
			t.Fatalf("schedule reserved %d times, want 1", seq)
		}
		measure(serial, s)
		serial.AddSearchCost(1e-6)
		serial.AddCostModelQueries(2)
	}
	if got, want := m.CostSec(), serial.CostSec(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("concurrent budget %v, serial %v", got, want)
	}
}
