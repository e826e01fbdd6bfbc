package costmodel

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"harl/internal/xrand"
)

// predict is the oracle traversal: it walks the node slice the way the tree
// was grown, leaf test and child indices included. Production evaluates only
// through perfForest; this is the ground truth that kernel is pinned against.
func (t *tree) predict(x []float64) float64 {
	i := 0
	for !t.nodes[i].isLeaf {
		if x[t.nodes[i].feat] <= t.nodes[i].thr {
			i = t.nodes[i].left
		} else {
			i = t.nodes[i].right
		}
	}
	return t.nodes[i].leaf
}

// referencePredict recomputes a prediction with the oracle walk, scaling each
// leaf at predict time.
func referencePredict(m *Model, x []float64) float64 {
	if !m.conforms(x) {
		return m.clamp(m.base)
	}
	y := m.base + m.linearTerm(x)
	for _, t := range m.trees {
		y += m.P.LearningRate * t.predict(x)
	}
	if m.Trained() {
		y = m.clamp(y)
	}
	return y
}

// TestFlatKernelEquivalence pins the bit-identity contract of the one
// evaluation kernel: Predict and PredictBatch over the padded layout (full
// blocks, the remainder, and the row-at-a-time walk a mismatched row forces)
// must equal the oracle walk exactly — for freshly refit models, for models
// reloaded from checkpoints, and for clones. It also pins the residuals Refit
// leaves, each leaf taken off its samples as grow made it, against the oracle
// walk of the finished trees.
func TestFlatKernelEquivalence(t *testing.T) {
	rng := xrand.New(21)
	m := New(DefaultParams())
	xs, ys := synth(rng, 500, 8)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	m.Refit()
	if len(m.trees) != m.perf.numTrees() {
		t.Fatalf("kernel has %d trees, ensemble %d", m.perf.numTrees(), len(m.trees))
	}
	for i, x := range m.xs {
		r := m.ys[i] - m.base
		r -= m.linearTerm(x)
		for _, tr := range m.trees {
			r -= m.P.LearningRate * tr.predict(x)
		}
		if r != m.resid[i] {
			t.Fatalf("refit residual %d: leaf-time %v, oracle walk %v", i, m.resid[i], r)
		}
	}
	hx, _ := synth(rng, 303, 8)
	mixed := append(append([][]float64(nil), hx[:9]...), make([]float64, 5))

	check := func(name string, mm *Model) {
		t.Helper()
		for i, x := range hx {
			if got, want := mm.Predict(x), referencePredict(mm, x); got != want {
				t.Fatalf("%s: sample %d: kernel %v, reference %v", name, i, got, want)
			}
		}
		for _, rows := range [][][]float64{hx, mixed} {
			batch := mm.PredictBatch(rows)
			for i, x := range rows {
				if want := referencePredict(mm, x); batch[i] != want {
					t.Fatalf("%s: batch of %d, sample %d: kernel %v, reference %v", name, len(rows), i, batch[i], want)
				}
			}
		}
	}
	check("refit", m)

	data, err := m.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	check("checkpoint-loaded", loaded)
}

// testRunner is a real concurrent runner that deliberately starts jobs in
// reverse index order, so any accidental order dependence in the parallel
// refit scans would surface.
func testRunner(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// TestParallelRefitBitIdentical pins the SetRunner contract: a refit fanned
// across a concurrent runner must produce a byte-identical model (checkpoint
// bytes, not just predictions) to the serial refit, and repeated refits with
// reused scratch buffers must not drift — with the histogram fill and
// boundary scans on the host's lanes and on the Go loops, which must agree
// with each other too.
func TestParallelRefitBitIdentical(t *testing.T) {
	ckpts := map[string][]string{}
	for _, impl := range kernels {
		t.Run(impl, func(t *testing.T) {
			undo, ok := useKernels(impl)
			defer undo()
			if !ok {
				t.Skip("costmodel has no lanes on this host")
			}
			rng := xrand.New(22)
			xs, ys := synth(rng, 700, 8)
			serial, par := New(DefaultParams()), New(DefaultParams())
			par.SetRunner(testRunner)
			for i := range xs {
				serial.Add(xs[i], ys[i])
				par.Add(xs[i], ys[i])
			}
			for round := 0; round < 3; round++ {
				serial.Refit()
				par.Refit()
				a, err := serial.MarshalCheckpoint()
				if err != nil {
					t.Fatal(err)
				}
				b, err := par.MarshalCheckpoint()
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Fatalf("round %d: parallel refit produced a different model", round)
				}
				ckpts[impl] = append(ckpts[impl], string(a))
				// Grow the training set between rounds so the reused buffers are
				// exercised at changing sizes.
				nx, ny := synth(rng, 100, 8)
				for i := range nx {
					serial.Add(nx[i], ny[i])
					par.Add(nx[i], ny[i])
				}
			}
		})
	}
	if lanes, ok := ckpts["avx"]; ok && !slices.Equal(lanes, ckpts["portable"]) {
		t.Fatal("the lanes and the Go loops fitted different models")
	}
}

// TestPredictBatchIntoMatchesPredictBatch pins the caller-owned-buffer batch
// path against the allocating one, trained and untrained.
func TestPredictBatchIntoMatchesPredictBatch(t *testing.T) {
	rng := xrand.New(23)
	m := New(DefaultParams())
	xs, ys := synth(rng, 300, 6)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	hx, _ := synth(rng, 128, 6)
	out := make([]float64, len(hx))
	for pass := 0; pass < 2; pass++ {
		want := m.PredictBatch(hx)
		m.PredictBatchInto(hx, out)
		for i := range hx {
			if out[i] != want[i] {
				t.Fatalf("pass %d sample %d: into %v, batch %v", pass, i, out[i], want[i])
			}
		}
		m.Refit()
	}
}

// TestPredictBatchAllocs pins the allocation cost of the batch kernels: the
// allocating form costs exactly its output slice, and the Into form is
// allocation-free.
func TestPredictBatchAllocs(t *testing.T) {
	rng := xrand.New(24)
	m := New(DefaultParams())
	xs, ys := synth(rng, 512, 24)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	m.Refit()
	hx, _ := synth(rng, 256, 24)
	if n := totalAllocs(20, func() { m.PredictBatch(hx) }); n != 20 {
		t.Fatalf("20 PredictBatch calls allocate %d objects, want 20 (the output slices)", n)
	}
	out := make([]float64, len(hx))
	if n := totalAllocs(20, func() { m.PredictBatchInto(hx, out) }); n != 0 {
		t.Fatalf("20 PredictBatchInto calls allocate %d objects, want 0", n)
	}
}

// totalAllocs counts the allocations of runs calls of f, as
// testing.AllocsPerRun does but without its integer division, so that one
// allocation more in a branch that only some calls take still shows. It
// counts three times after two warm-up calls (a call that alternates paths,
// like a window step that trains on every other tick, has then taken both)
// and returns the least count: the runtime, the race detector's especially,
// now and then allocates on its own account (refilling a cache a collection
// emptied, say), which lands in one count, while what the calls allocate
// lands in every one.
func totalAllocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	f()
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// mallocsDuring counts heap allocations performed by f.
func mallocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRefitBufferReuse pins that the steady-state refit loop stops churning
// the allocator: with a warm model, a second refit over the same data reuses
// the resid/idx/bins/edges/histogram scratch instead of reallocating it. The
// tree nodes themselves still allocate (they become the ensemble), so the pin
// is relative: a warm refit must allocate well under half of a cold one.
func TestRefitBufferReuse(t *testing.T) {
	rng := xrand.New(25)
	m := New(DefaultParams())
	xs, ys := synth(rng, 512, 24)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	cold := mallocsDuring(m.Refit)
	hist := &m.hist[0]
	warm := mallocsDuring(m.Refit)
	if warm > cold/2 {
		t.Fatalf("warm refit allocates %d objects vs %d cold, want < half", warm, cold)
	}
	// The split finder's histogram block is sized by the feature dimension
	// alone: a grown training set refits into the same block.
	more, my := synth(rng, 700, 24)
	for i := range more {
		m.Add(more[i], my[i])
	}
	m.Refit()
	if len(m.hist) != 24 || &m.hist[0] != hist {
		t.Fatalf("histogram block reallocated across refits of equal dimension (now %d rows)", len(m.hist))
	}
}
