// Package costmodel implements the light-weight learned cost model of the
// HARL system: gradient-boosted regression trees (the paper uses XGBoost with
// Ansor's parameters; this is a from-scratch stdlib implementation of the
// same algorithm family). The model predicts log-throughput from schedule
// features, is refit on the fly from hardware measurements after every top-K
// measurement batch, and serves as the reward function
//
//	r(s_t, s_{t-1}) = (C(s_t) - C(s_{t-1})) / C(s_{t-1})
//
// of the actor-critic search as well as the ranking oracle of the top-K
// selection phase.
//
// Because the model sits on the search hot path (every candidate the engines
// visit is scored, and the ensemble is rebuilt after every measurement
// batch), Predict and PredictBatch run on one kernel, a padded perfect-tree
// layout of the ensemble (see perfForest), and Refit grows trees on the binned
// matrix alone: each node's split comes from one sample-outer / feature-inner
// sweep (see scanFeatures; on an AVX host its adds and boundary scans run in
// 256-bit lanes, see fillLanes and scanLanes), nodes partition by bin, and
// each leaf leaves its samples' residuals as it is made. All of it is exact:
// predictions and fitted ensembles are bit-identical to a straightforward
// walk of the node slices and a feature-at-a-time histogram scan of the raw
// values, which live on in the tests as the oracles the production code is
// pinned against.
package costmodel

import (
	"bytes"
	"math"
	"sort"
)

// Params configures the boosted ensemble.
type Params struct {
	NumTrees     int     // boosting rounds
	MaxDepth     int     // tree depth limit, at most maxPerfDepth
	LearningRate float64 // shrinkage
	MinSamples   int     // minimum samples to split a node
	MaxData      int     // training-set cap (most recent kept)
}

// DefaultParams mirrors the scale of Ansor's XGBoost configuration while
// staying fast enough to refit hundreds of times per tuning run.
func DefaultParams() Params {
	return Params{
		NumTrees:     30,
		MaxDepth:     6,
		LearningRate: 0.3,
		MinSamples:   6,
		MaxData:      4096,
	}
}

type node struct {
	feat        int
	thr         float64
	left, right int
	leaf        float64
	isLeaf      bool
}

// tree is the grow and checkpoint representation of one regression tree;
// evaluation goes through perfForest.
type tree struct{ nodes []node }

// maxPerfDepth bounds Params.MaxDepth: a padded tree costs 2^(depth+1) slots,
// so the limit is what keeps the kernel's memory proportional to the tree
// count (the default depth is 6). UnmarshalCheckpoint enforces it on
// artifacts; reset panics on a model constructed beyond it. maxTrees bounds
// Params.NumTrees on artifacts the same way, and maxDim their feature
// dimension (schedule features are 23–41 wide; the ridge term is d³): with the
// depth limit and the artifact's own row count they cap what the first Refit
// after a load can cost (the default is 30 trees).
const (
	maxPerfDepth = 8
	maxTrees     = 256
	maxDim       = 128
)

// perfForest is the evaluation kernel: every tree padded to a perfect tree of
// uniform depth, nodes laid out breadth-first with implicit children (node k
// → 2k+1, 2k+2), leaves pre-scaled by the learning rate (lr·leaf is the same
// IEEE product whether taken at build or at predict time). A walk is exactly
// `depth` iterations with no leaf test and no child-index loads — descending
// below an original leaf crosses padding nodes whose every descendant holds
// that leaf's value, so the walk lands on the same result the real tree
// produces, bit for bit. The uniform walk has no data-dependent exit for a
// branch predictor to miss on a fresh row, and is what lets scoreBlock4
// interleave four samples profitably.
type perfForest struct {
	depth   int
	istride int // internal slots per tree: 2^depth - 1
	lstride int // leaf slots per tree: 2^depth
	feat    []int32
	thr     []float64
	leaf    []float64
}

// reset empties the forest and fixes the depth its trees are padded to.
func (p *perfForest) reset(depth int) {
	if depth < 0 || depth > maxPerfDepth {
		panic("costmodel: Params.MaxDepth outside [0, maxPerfDepth]")
	}
	p.depth, p.istride, p.lstride = depth, 1<<depth-1, 1<<depth
	p.feat, p.thr, p.leaf = p.feat[:0], p.thr[:0], p.leaf[:0]
}

func (p *perfForest) numTrees() int { return len(p.leaf) >> p.depth }

// addTree appends one built tree (no deeper than the forest's depth) and
// returns its index.
func (p *perfForest) addTree(t *tree, lr float64) int {
	ti := p.numTrees()
	p.feat = grow(p.feat, p.istride)
	p.thr = grow(p.thr, p.istride)
	p.leaf = grow(p.leaf, p.lstride)
	p.fill(t, 0, ti*p.istride, ti*p.lstride, 0, 0, lr)
	return ti
}

// fill writes the subtree of node ni at heap slot k (depth d). An original
// leaf above the bottom becomes a padding subtree: its internal slots compare
// feature 0 against +Inf (direction irrelevant — every descendant leaf holds
// the same value) and all 2^(depth-d) bottom slots get the pre-scaled leaf.
func (p *perfForest) fill(t *tree, ni, base, lbase, k, d int, lr float64) {
	n := t.nodes[ni]
	if d == p.depth {
		p.leaf[lbase+k-p.istride] = lr * n.leaf
		return
	}
	if n.isLeaf {
		p.pad(base, lbase, k, d, lr*n.leaf)
		return
	}
	p.feat[base+k] = int32(n.feat)
	p.thr[base+k] = n.thr
	p.fill(t, n.left, base, lbase, 2*k+1, d+1, lr)
	p.fill(t, n.right, base, lbase, 2*k+2, d+1, lr)
}

// pad fills the perfect subtree under heap slot k (an original leaf at depth
// d) with that leaf's value.
func (p *perfForest) pad(base, lbase, k, d int, scaled float64) {
	if d == p.depth {
		p.leaf[lbase+k-p.istride] = scaled
		return
	}
	p.feat[base+k] = 0
	p.thr[base+k] = math.Inf(1)
	p.pad(base, lbase, 2*k+1, d+1, scaled)
	p.pad(base, lbase, 2*k+2, d+1, scaled)
}

// scoreBlock4 walks four samples through tree ti at once: `depth` uniform
// iterations, each stepping four independent walks so the node and feature
// loads of different lanes overlap (the one-at-a-time walk is bound by its
// dependent-load chain). Comparisons are identical to the real tree's, so
// each lane lands on the exact value score would return.
func (p *perfForest) scoreBlock4(ti int, x0, x1, x2, x3 []float64) (s0, s1, s2, s3 float64) {
	base, lbase := ti*p.istride, ti*p.lstride
	feat := p.feat[base : base+p.istride]
	thr := p.thr[base : base+p.istride]
	k0, k1, k2, k3 := 0, 0, 0, 0
	for d := 0; d < p.depth; d++ {
		b0, b1, b2, b3 := 0, 0, 0, 0
		if !(x0[feat[k0]] <= thr[k0]) {
			b0 = 1
		}
		if !(x1[feat[k1]] <= thr[k1]) {
			b1 = 1
		}
		if !(x2[feat[k2]] <= thr[k2]) {
			b2 = 1
		}
		if !(x3[feat[k3]] <= thr[k3]) {
			b3 = 1
		}
		k0 = 2*k0 + 1 + b0
		k1 = 2*k1 + 1 + b1
		k2 = 2*k2 + 1 + b2
		k3 = 2*k3 + 1 + b3
	}
	leaf := p.leaf[lbase : lbase+p.lstride]
	return leaf[k0-p.istride], leaf[k1-p.istride], leaf[k2-p.istride], leaf[k3-p.istride]
}

// score returns the pre-scaled leaf value (lr·leaf) of tree ti for x.
func (p *perfForest) score(ti int, x []float64) float64 {
	base := ti * p.istride
	feat := p.feat[base : base+p.istride]
	thr := p.thr[base : base+p.istride]
	k := 0
	for d := 0; d < p.depth; d++ {
		b := 0
		if !(x[feat[k]] <= thr[k]) {
			b = 1
		}
		k = 2*k + 1 + b
	}
	return p.leaf[ti*p.lstride+k-p.istride]
}

// Runner fans n index-addressed jobs across workers and returns when all have
// finished; job i must confine its writes to its own slot of the caller's
// output. search.ParallelPool.Run satisfies it. A nil Runner runs inline.
type Runner func(n int, fn func(i int))

// Model is an online-refit GBDT regressor with a ridge-regression base
// learner: the linear component supplies a smooth, everywhere-nonzero
// gradient (important for the ratio-form RL reward, which would be exactly
// zero whenever two neighboring schedules fall into the same tree leaves),
// and the trees capture the nonlinear residual structure.
type Model struct {
	P     Params
	trees []*tree
	perf  perfForest // evaluation layout of trees, kept in step by addTree
	base  float64
	lin   []float64 // ridge weights over features (nil until fitted)
	linMu []float64 // feature means used by the linear term

	yMin, yMax float64 // target range at last refit, bounds extrapolation

	xs [][]float64
	ys []float64

	// Histogram state rebuilt at each refit: per-feature bin edges, the
	// features whose samples occupy two bins or more, and their binned
	// matrix, row-major (bins[i*len(cols)+c] is sample i's bin of cols[c]).
	edges [][]float64
	cols  []int
	bins  []uint8

	// run, when set, parallelizes the independent scans of Refit (per-feature
	// binning, per-node split finding over column chunks) with a fixed
	// slot-merge order, so the fitted ensemble is bit-identical for every
	// worker count. search.Task points it at the task's pool before refits.
	run Runner

	// Scratch buffers reused across refits so the steady-state refit loop
	// (~every measurement batch) stops churning the allocator.
	resid      []float64
	idx        []int
	idxScratch []int
	nodes      []node            // the tree buildTree grows
	featVals   []float64         // per-feature sort scratch, dim×n
	colBins    []uint8           // every feature's bins, column-major, dim×n
	gainBuf    []float64         // per column: its best gain at the node
	binBuf     []int32           // per column: the bin boundary reaching it
	hist       [][numBins]binAcc // bestSplit's histogram block, one row per column

	// split carries one bestSplit call's inputs and splitScan is the
	// persistent feature-chunk job reading them: a closure literal inside
	// bestSplit would escape (it may be handed to the runner) and so allocate
	// once per tree node — the dominant refit allocation otherwise.
	split struct {
		idx                     []int
		resid                   []float64
		n, total, totalSq, base float64
	}
	splitScan func(c int)
}

// binAcc accumulates one (feature, bin) cell of a node's histogram: sample
// count, residual sum and sum of squares, padded to 32 bytes so a cell is one
// 256-bit lane group of fillLanes.
type binAcc struct{ n, s, q, _ float64 }

// New creates an empty model.
func New(p Params) *Model { return &Model{P: p} }

var _ CostModel = (*Model)(nil)

// SetRunner installs the parallel runner Refit fans its scans across. The
// fitted ensemble is bit-identical with or without a runner; only wall-clock
// time changes. Implements ParallelRefitter.
func (m *Model) SetRunner(r Runner) { m.run = r }

// Len returns the number of stored training samples.
func (m *Model) Len() int { return len(m.xs) }

// dim returns the model's feature dimension (0 while empty). Schedule
// features are uniform within a workload but their length varies across
// workload structures (axis counts differ), so cost-model knowledge only
// transfers between workloads of equal dimension; Add gates on dim.
func (m *Model) dim() int {
	if len(m.xs) > 0 {
		return len(m.xs[0])
	}
	if m.lin != nil {
		return len(m.lin)
	}
	return 0
}

// Trained reports whether the model has a fitted ensemble.
func (m *Model) Trained() bool { return len(m.trees) > 0 || m.lin != nil }

// Add appends measured samples (feature vector, log-throughput target) to the
// training set, evicting the oldest beyond the cap. A sample whose dimension
// differs from the stored set's is dropped: the training matrix must stay
// rectangular for the fitters, and a mismatched dimension means the sample
// belongs to a structurally incompatible workload.
func (m *Model) Add(x []float64, y float64) {
	if d := m.dim(); d > 0 && len(x) != d {
		return
	}
	m.xs = append(m.xs, append([]float64(nil), x...))
	m.ys = append(m.ys, y)
	if m.P.MaxData > 0 && len(m.xs) > m.P.MaxData {
		// Reslicing off the front keeps an eviction O(1); append moves the
		// window to a fresh array whenever the capacity behind it runs out.
		drop := len(m.xs) - m.P.MaxData
		clear(m.xs[:drop])
		m.xs, m.ys = m.xs[drop:], m.ys[drop:]
	}
}

// parallelChunk is the node size from which bestSplit fans its feature
// chunks across the runner: below it the dispatch costs more than it saves.
const parallelChunk = 256

// Refit rebuilds the ensemble from the stored samples. With fewer samples
// than MinSamples the model stays untrained and Predict returns the base.
// Scan buffers are reused across calls and the independent scans fan across
// the runner; the fitted ensemble is bit-identical to a serial, fresh-buffer
// fit (the accumulation order of every floating-point reduction is fixed).
func (m *Model) Refit() {
	m.trees = nil
	m.perf.reset(m.P.MaxDepth)
	m.lin = nil
	n := len(m.xs)
	if n == 0 {
		m.base = 0
		return
	}
	sum := 0.0
	m.yMin, m.yMax = m.ys[0], m.ys[0]
	for _, y := range m.ys {
		sum += y
		if y < m.yMin {
			m.yMin = y
		}
		if y > m.yMax {
			m.yMax = y
		}
	}
	m.base = sum / float64(n)
	// Featureless samples fit nothing beyond the base (and the kernel's
	// padding slots read x[0]).
	if n < m.P.MinSamples || len(m.xs[0]) == 0 {
		return
	}
	m.resid = resize(m.resid, n)
	resid := m.resid
	for i, y := range m.ys {
		resid[i] = y - m.base
	}
	m.fitLinear(resid)
	for i, x := range m.xs {
		resid[i] -= m.linearTerm(x)
	}
	m.buildBins()
	m.idx = resize(m.idx, n)
	for t := 0; t < m.P.NumTrees; t++ {
		// Each tree partitions m.idx in place as it grows; reset to identity
		// so every tree's root scans samples in the same (input) order.
		for i := range m.idx {
			m.idx[i] = i
		}
		tr := m.buildTree(resid)
		m.trees = append(m.trees, tr)
		m.perf.addTree(tr, m.P.LearningRate)
	}
}

// numBins is the histogram resolution of the split finder.
const numBins = 32

// buildBins computes per-feature quantile bin edges over the training set and
// the binned sample matrix tree growth reads. Features bin independently (one
// slot each), so the per-feature scans fan across the runner. A feature whose
// samples share one bin gets no column: no node can split on it.
func (m *Model) buildBins() {
	n := len(m.xs)
	d := len(m.xs[0])
	m.edges = resize(m.edges, d)
	m.featVals = resize(m.featVals, d*n)
	m.colBins = resize(m.colBins, d*n)
	bin := func(f int) {
		vals := m.featVals[f*n : (f+1)*n]
		for i, x := range m.xs {
			vals[i] = x[f]
		}
		sort.Float64s(vals)
		edges := m.edges[f][:0]
		for b := 1; b < numBins; b++ {
			e := vals[(n-1)*b/numBins]
			if len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		m.edges[f] = edges
		col := m.colBins[f*n : (f+1)*n]
		for i, x := range m.xs {
			col[i] = uint8(sort.SearchFloat64s(edges, x[f]))
		}
	}
	if m.run != nil && d > 1 {
		m.run(d, bin)
	} else {
		for f := 0; f < d; f++ {
			bin(f)
		}
	}
	m.cols = m.cols[:0]
	for f := 0; f < d; f++ {
		if col := m.colBins[f*n : (f+1)*n]; bytes.Count(col, col[:1]) < n {
			m.cols = append(m.cols, f)
		}
	}
	m.bins = resize(m.bins, n*len(m.cols))
	for c, f := range m.cols {
		for i, b := range m.colBins[f*n : (f+1)*n] {
			m.bins[i*len(m.cols)+c] = b
		}
	}
}

// buildTree grows one regression tree over m.idx (reset to identity by the
// caller) in m.nodes, sized to the tree's bound — min(full tree of MaxDepth,
// one node per sample pair) — so growing never reallocates it, and returns the
// tree copied at its length: the model keeps every tree for the checkpoint
// codec, and a tree of a small training set fills a fraction of its bound.
func (m *Model) buildTree(resid []float64) *tree {
	maxNodes := min(2*len(m.idx)-1, 1<<(m.P.MaxDepth+1)-1)
	if cap(m.nodes) < maxNodes {
		m.nodes = make([]node, 0, maxNodes)
	}
	tr := &tree{nodes: m.nodes[:0]}
	m.grow(tr, 0, len(m.idx), resid, 0)
	tr.nodes = append(make([]node, 0, len(tr.nodes)), tr.nodes...)
	return tr
}

// grow appends the subtree for the samples in m.idx[lo:hi] and returns its
// root index. Instead of allocating left/right index slices per node, the
// range is stably partitioned in place (the scratch buffer holds the right
// side), which preserves exactly the relative sample order the slice-append
// implementation produced — every reduction scans samples in the same order,
// so the tree is bit-identical. A leaf takes lr·leaf off its samples'
// residuals at once: no later node of the tree reads them.
func (m *Model) grow(tr *tree, lo, hi int, resid []float64, depth int) int {
	idx := m.idx[lo:hi]
	// One walk serves the leaf value (the node's mean residual) and the
	// totals every candidate split's right side is derived from.
	total, totalSq := 0.0, 0.0
	for _, i := range idx {
		total += resid[i]
		totalSq += resid[i] * resid[i]
	}
	me := len(tr.nodes)
	leaf := total / float64(len(idx))
	tr.nodes = append(tr.nodes, node{isLeaf: true, leaf: leaf})
	if depth < m.P.MaxDepth && len(idx) >= m.P.MinSamples && len(m.cols) > 0 {
		if c, b, gain := m.bestSplit(idx, resid, total, totalSq); gain > 1e-12 {
			if mid := m.partition(lo, hi, c, b); mid != lo && mid != hi {
				l := m.grow(tr, lo, mid, resid, depth+1)
				r := m.grow(tr, mid, hi, resid, depth+1)
				tr.nodes[me] = node{feat: m.cols[c], thr: m.edges[m.cols[c]][b], left: l, right: r}
				return me
			}
		}
	}
	step := float64(m.P.LearningRate * leaf) // the kernel's rounded leaf: never fused below
	for _, i := range idx {
		resid[i] -= step
	}
	return me
}

// partition stably reorders m.idx[lo:hi] so samples in bins up to b of column
// c come first (x <= edges[b] exactly when bin(x) <= b), returning the
// boundary. Relative order within each side is preserved (the property grow's
// determinism rests on).
func (m *Model) partition(lo, hi, c, b int) int {
	m.idxScratch = resize(m.idxScratch, hi-lo)
	right, dc := m.idxScratch, len(m.cols)
	w, k := lo, 0
	for _, i := range m.idx[lo:hi] {
		// Without a branch: left is the sign bit of bin-b-1, 1 on the left.
		left := int(uint(int(m.bins[i*dc+c])-b-1) >> 63)
		m.idx[w], right[k] = i, i
		w, k = w+left, k+1-left
	}
	copy(m.idx[w:hi], right[:k])
	return w
}

// featChunk is how many feature columns one runner job of bestSplit sweeps:
// wide enough that re-reading idx and resid per chunk stays a small share of
// the sweep, narrow enough that schedule-sized rows (23–41 features) spread
// over a pool.
const featChunk = 8

// bestSplit finds the split of a node (idx, with the residual total and sum
// of squares grow already took) with the largest sum-of-squared-error
// reduction using the histogram method: scanFeatures fills every column's
// per-bin (count, sum, sum²) and walks each column's bin boundaries into its
// own gainBuf/binBuf slot, and the slots merge serially in column order under
// a strict-greater comparison — the first (column, bin) pair reaching the
// maximal gain wins however the columns were chunked. The split is column c
// at its bin boundary b; gain 0 means none. There is at least one column.
func (m *Model) bestSplit(idx []int, resid []float64, total, totalSq float64) (c, b int, gain float64) {
	d := len(m.cols)
	n := float64(len(idx))
	m.gainBuf = resize(m.gainBuf, d)
	m.binBuf = resize(m.binBuf, d)
	m.hist = resize(m.hist, d)
	m.split.idx, m.split.resid = idx, resid
	m.split.n, m.split.total, m.split.totalSq, m.split.base = n, total, totalSq, totalSq-total*total/n
	// Only large nodes repay the dispatch; the gate depends solely on the
	// node size, and a chunk writes only its own features' rows and slots, so
	// the parallel and serial paths pick identical splits.
	if m.run != nil && len(idx) >= 2*parallelChunk {
		if m.splitScan == nil {
			m.splitScan = func(c int) { m.scanFeatures(c*featChunk, min(len(m.cols), (c+1)*featChunk)) }
		}
		m.run((d+featChunk-1)/featChunk, m.splitScan)
	} else {
		m.scanFeatures(0, d)
	}
	m.split.idx, m.split.resid = nil, nil
	for k, g := range m.gainBuf {
		if g > gain {
			c, b, gain = k, int(m.binBuf[k]), g
		}
	}
	return c, b, gain
}

// fillLanes, where the host has one, is scanFeatures' fill loop in assembly
// (nil elsewhere): for each sample of the node in order, one 256-bit add of
// [1, r, r·r, 0] to its cell in each of w ≥ 1 columns — each cell still its
// own IEEE chain in the same order, so the histogram is the Go loop's bit for
// bit. The Go loop is its specification and the path everywhere else.
var fillLanes func(hist *[numBins]binAcc, bins *uint8, d int, idx *int, n int, resid *float64, w int)

// scanLanes, where the host has one, is scanFeature over four columns in
// assembly (nil elsewhere), one lane each repeating the Go loop's IEEE
// operations in order to nb, the group's longest edge count.
var scanLanes func(hist *[numBins]binAcc, nb int, n, total, totalSq, base float64, gain *float64, bin *int32)

// Portable sends Refit's histogram fill and boundary scans through their Go
// loops until the returned func restores the host's kernels: a seam for
// measuring the loops beside the lanes.
//
//lint:allow deadexport bench_test.go (BenchmarkRefit/real-512-portable) and costmodel/fill_test.go (useKernels, checkFill) run the Go loops with it
func Portable() (restore func()) {
	fill, scan := fillLanes, scanLanes
	fillLanes, scanLanes = nil, nil
	return func() { fillLanes, scanLanes = fill, scan }
}

// scanFeatures is bestSplit's work over the columns [lo, hi) (inputs in
// m.split, lo < hi): one sample-outer / feature-inner sweep filling their
// histogram rows, then each column's boundary scan. The loop nest is this way
// round because schedule features occupy 4–6 bins each: feature-outer,
// consecutive samples land on the same few accumulators and every add waits on
// the previous store, and each step gathers one strided byte; sample-outer
// reads the bin row contiguously, takes r and r² once, and spreads consecutive
// adds over hi-lo independent cells. Every (feature, bin) cell still receives
// exactly the node's samples in idx order and is its own IEEE sum chain, so
// the histogram — hence every gain and threshold — is bit-identical to the
// feature-at-a-time scan the tests keep as the oracle.
func (m *Model) scanFeatures(lo, hi int) {
	d := len(m.cols)
	hist := m.hist[lo:hi]
	for f := range hist {
		clear(hist[f][:len(m.edges[m.cols[lo+f]])+1])
	}
	resid, idx := m.split.resid, m.split.idx
	if fillLanes != nil && len(idx) > 0 {
		fillLanes(&hist[0], &m.bins[lo], d, &idx[0], len(idx), &resid[0], hi-lo)
	} else {
		for _, i := range idx {
			r := resid[i]
			q := r * r
			for f, b := range m.bins[i*d+lo : i*d+hi] {
				a := &hist[f][b%numBins] // b < numBins already; the mask spares the bounds check
				a.n++
				a.s += r
				a.q += q
			}
		}
	}
	c := lo
	for ; scanLanes != nil && c+4 <= hi; c += 4 {
		e := m.edges
		nb := max(len(e[m.cols[c]]), len(e[m.cols[c+1]]), len(e[m.cols[c+2]]), len(e[m.cols[c+3]]))
		scanLanes(&m.hist[c], nb, m.split.n, m.split.total, m.split.totalSq, m.split.base, &m.gainBuf[c], &m.binBuf[c])
	}
	for ; c < hi; c++ {
		m.scanFeature(c)
	}
}

// scanFeature is the boundary scan over column c's filled histogram row
// (result in m.gainBuf[c]/m.binBuf[c]): it tracks the column's first best
// gain under the same strict-greater comparison bestSplit merges with.
func (m *Model) scanFeature(c int) {
	edges, hist := m.edges[m.cols[c]], &m.hist[c]
	n, total, totalSq, baseSSE := m.split.n, m.split.total, m.split.totalSq, m.split.base
	bestG, bestB := 0.0, 0
	lN, lSum, lSq := 0.0, 0.0, 0.0
	for b := 0; b < len(edges); b++ {
		lN += hist[b].n
		lSum += hist[b].s
		lSq += hist[b].q
		if lN == 0 || lN == n {
			continue
		}
		rSum, rSq, rN := total-lSum, totalSq-lSq, n-lN
		sse := (lSq - lSum*lSum/lN) + (rSq - rSum*rSum/rN)
		if g := baseSSE - sse; g > bestG {
			bestG, bestB = g, b
		}
	}
	m.gainBuf[c], m.binBuf[c] = bestG, int32(bestB)
}

// fitLinear fits ridge regression of the residuals onto the features via
// Gaussian elimination on the regularized normal equations.
func (m *Model) fitLinear(resid []float64) {
	n := len(m.xs)
	d := len(m.xs[0])
	mu := make([]float64, d)
	for _, x := range m.xs {
		for j, v := range x {
			mu[j] += v
		}
	}
	for j := range mu {
		mu[j] /= float64(n)
	}
	// A = XᵀX + λI, b = Xᵀr with centered features.
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d+1)
	}
	const lambda = 5.0
	for i := 0; i < d; i++ {
		a[i][i] = lambda
	}
	for k := 0; k < n; k++ {
		x := m.xs[k]
		for i := 0; i < d; i++ {
			xi := x[i] - mu[i]
			for j := i; j < d; j++ {
				a[i][j] += xi * (x[j] - mu[j])
			}
			a[i][d] += xi * resid[k]
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		if math.Abs(a[col][col]) < 1e-12 {
			continue
		}
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= d; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	w := make([]float64, d)
	for i := 0; i < d; i++ {
		if math.Abs(a[i][i]) > 1e-12 {
			w[i] = a[i][d] / a[i][i]
		}
	}
	m.lin, m.linMu = w, mu
}

func (m *Model) linearTerm(x []float64) float64 {
	if m.lin == nil {
		return 0
	}
	s := 0.0
	for j, w := range m.lin {
		s += w * (x[j] - m.linMu[j])
	}
	if math.IsNaN(s) {
		return 0
	}
	// The linear component exists to provide a smooth local reward gradient;
	// cap its global influence so a hyperplane cannot out-rank the trees far
	// from the training data.
	if cap := 0.25 * (m.yMax - m.yMin + 1e-9); s > cap {
		s = cap
	} else if cap := 0.25 * (m.yMax - m.yMin + 1e-9); s < -cap {
		s = -cap
	}
	return s
}

// Predict returns the model output (log-throughput) for one feature vector.
// Predictions are clamped to slightly beyond the observed target range so the
// linear base cannot extrapolate to absurd scores far from the training data.
func (m *Model) Predict(x []float64) float64 {
	if !m.conforms(x) {
		return m.clamp(m.base)
	}
	y := m.base + m.linearTerm(x)
	for t := 0; t < m.perf.numTrees(); t++ {
		y += m.perf.score(t, x)
	}
	if m.Trained() {
		y = m.clamp(y)
	}
	return y
}

// conforms reports whether x matches the model's feature dimension; a
// mismatched query (a structurally incompatible workload) falls back to the
// base prediction instead of indexing out of range.
func (m *Model) conforms(x []float64) bool {
	d := m.dim()
	return d == 0 || len(x) == d
}

func (m *Model) clamp(y float64) float64 {
	if hi := m.yMax + 0.5; y > hi {
		return hi
	}
	if lo := m.yMin - 0.5; y < lo {
		return lo
	}
	return y
}

// PredictBatch predicts a slice of feature vectors in a single pass over the
// ensemble; see PredictBatchInto for the kernel. The accumulation order per
// sample matches Predict exactly, so the results are bit-identical to
// element-wise Predict.
func (m *Model) PredictBatch(xs [][]float64) []float64 {
	out := make([]float64, len(xs))
	m.PredictBatchInto(xs, out)
	return out
}

// PredictBatchInto is PredictBatch writing into a caller-owned slice (len(xs)
// long), so steady-state batch scorers allocate nothing per call. It iterates
// trees-outer/samples-inner — one hot tree in cache at a time, instead of
// re-walking the full ensemble per sample as a Predict loop would, four
// samples to a block unless a row's dimension is off — with the exact
// accumulation order of Predict, so results are bit-identical to the
// element-wise path. Implements BatchInto.
func (m *Model) PredictBatchInto(xs [][]float64, out []float64) {
	var bad []bool
	for i, x := range xs {
		if !m.conforms(x) {
			if bad == nil {
				bad = make([]bool, len(xs))
			}
			bad[i] = true
			out[i] = 0
			continue
		}
		out[i] = m.base + m.linearTerm(x)
	}
	for t := 0; t < m.perf.numTrees(); t++ {
		i := 0
		for ; bad == nil && i+4 <= len(xs); i += 4 {
			s0, s1, s2, s3 := m.perf.scoreBlock4(t, xs[i], xs[i+1], xs[i+2], xs[i+3])
			out[i] += s0
			out[i+1] += s1
			out[i+2] += s2
			out[i+3] += s3
		}
		for ; i < len(xs); i++ {
			if bad == nil || !bad[i] {
				out[i] += m.perf.score(t, xs[i])
			}
		}
	}
	for i := range out[:len(xs)] {
		if bad != nil && bad[i] {
			out[i] = m.clamp(m.base)
		} else if m.Trained() {
			out[i] = m.clamp(out[i])
		}
	}
}

// Throughput converts a prediction into a strictly positive score usable as
// C(s) in the ratio-form reward.
func (m *Model) Throughput(x []float64) float64 {
	return ToThroughput(m.Predict(x))
}

// reflatten rebuilds the evaluation kernel from m.trees — the checkpoint-load
// path, where trees appear without going through Refit.
func (m *Model) reflatten() {
	m.perf.reset(m.P.MaxDepth)
	for _, t := range m.trees {
		m.perf.addTree(t, m.P.LearningRate)
	}
}

// resize returns buf with length n, reusing its capacity when possible.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// grow extends buf by n slots of unspecified content (addTree overwrites
// every slot it takes), allocating only once the capacity kept across refits
// runs out.
func grow[T any](buf []T, n int) []T {
	if len(buf)+n > cap(buf) {
		return append(buf, make([]T, n)...)
	}
	return buf[:len(buf)+n]
}
