package costmodel

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"harl/internal/xrand"
)

// kernels names the implementations of scanFeatures' histogram fill and
// boundary scans: the host's lanes (when it has them) and the Go loops.
var kernels = []string{"avx", "portable"}

// useKernels sends scanFeatures through impl until undo; ok is false when
// impl is "avx" and the host has no lanes.
func useKernels(impl string) (undo func(), ok bool) {
	if impl == "avx" {
		return func() {}, fillLanes != nil && scanLanes != nil
	}
	return Portable(), true
}

// cellBits is a cell's four lanes as bits, the pad included.
func cellBits(a *binAcc) [4]uint64 {
	v := (*[4]float64)(unsafe.Pointer(a))
	return [4]uint64{math.Float64bits(v[0]), math.Float64bits(v[1]), math.Float64bits(v[2]), math.Float64bits(v[3])}
}

// canary is what the cells around the rows the lanes write hold beforehand.
const canary = 0x7ff4_0000_0bad_cafe

// checkFill fills the histogram rows of columns [lo, hi) from the node (idx,
// resid) over a binned matrix of d columns twice — through the Go loop of
// scanFeatures, and through fillLanes into a block with a row of canaries on
// either side — and compares every cell by its bits.
func checkFill(t *testing.T, name string, d, lo, hi int, bins []uint8, idx []int, resid []float64) {
	t.Helper()
	if fillLanes == nil {
		t.Skip("costmodel has no fill lanes on this host: Go loop only")
	}
	edges := make([]float64, numBins-1) // a full row, so the Go side clears every cell
	m := &Model{bins: bins, edges: make([][]float64, d), cols: make([]int, d)}
	for f := range m.edges {
		m.edges[f], m.cols[f] = edges, f
	}
	m.hist, m.gainBuf, m.binBuf = make([][numBins]binAcc, d), make([]float64, d), make([]int32, d)
	m.split.idx, m.split.resid, m.split.n = idx, resid, float64(len(idx))
	undo := Portable()
	m.scanFeatures(lo, hi)
	undo()

	block := make([][numBins]binAcc, hi-lo+2)
	for r := range block {
		for b := range block[r] {
			v := (*[4]float64)(unsafe.Pointer(&block[r][b]))
			for k := range v {
				v[k] = math.Float64frombits(canary)
			}
		}
	}
	rows := block[1 : hi-lo+1]
	for f := range rows {
		clear(rows[f][:])
	}
	if len(idx) > 0 {
		fillLanes(&rows[0], &bins[lo], d, &idx[0], len(idx), &resid[0], hi-lo)
	}
	for f := range rows {
		for b := range rows[f] {
			if got, want := cellBits(&rows[f][b]), cellBits(&m.hist[lo+f][b]); got != want {
				t.Fatalf("%s: column %d bin %d: lanes %#x, Go loop %#x", name, lo+f, b, got, want)
			}
		}
	}
	for _, r := range []int{0, len(block) - 1} {
		for b := range block[r] {
			for _, v := range cellBits(&block[r][b]) {
				if v != canary {
					t.Fatalf("%s: the lanes wrote outside their rows (row %d, bin %d)", name, r-1, b)
				}
			}
		}
	}
}

// residEdges are the residuals where an operand order or a lost lane would
// show: signed zeros, infinities, quiet NaNs of distinct payloads, subnormals,
// and the largest finite values, whose sums and squares overflow.
var residEdges = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_0000_0001), math.Float64frombits(0xfff8_0000_dead_beef),
	math.Float64frombits(0x7ffc_0000_0000_1234),
	math.SmallestNonzeroFloat64, -math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.MaxFloat64, -math.MaxFloat64, 1, -0.5,
}

// TestFillLanesMatchGo pins fillLanes to scanFeatures' Go loop on the bits of
// every cell: random nodes in any sample order, a single sample, column chunks
// that start after 0 and stop before d (a runner's), and the edge residuals
// crowded into a few bins so NaNs of distinct payloads meet in one cell.
func TestFillLanesMatchGo(t *testing.T) {
	rng := xrand.New(51)
	randBins := func(n, d, span int) []uint8 {
		bins := make([]uint8, n*d)
		for i := range bins {
			bins[i] = uint8(rng.Intn(span))
		}
		return bins
	}
	for trial := 0; trial < 200; trial++ {
		d, n := 1+rng.Intn(48), 1+rng.Intn(300)
		if trial%10 == 0 {
			n = 1
		}
		bins := randBins(n, d, 1+rng.Intn(numBins))
		resid := make([]float64, n)
		for i := range resid {
			resid[i] = (2*rng.Float64() - 1) * math.Exp(4*rng.Float64()-2)
		}
		idx := rng.Perm(n)[:1+rng.Intn(n)]
		lo := rng.Intn(d)
		hi := lo + 1 + rng.Intn(d-lo)
		checkFill(t, fmt.Sprintf("trial %d (d=%d, n=%d)", trial, d, n), d, 0, d, bins, idx, resid)
		checkFill(t, fmt.Sprintf("trial %d (d=%d, n=%d) columns [%d, %d)", trial, d, n, lo, hi), d, lo, hi, bins, idx, resid)
	}
	for trial := 0; trial < 50; trial++ {
		d, n := 1+rng.Intn(12), 1+rng.Intn(64)
		bins := randBins(n, d, 3)
		resid := make([]float64, n)
		for i := range resid {
			resid[i] = residEdges[rng.Intn(len(residEdges))]
		}
		idx := rng.Perm(n)
		checkFill(t, fmt.Sprintf("edges %d", trial), d, 0, d, bins, idx, resid)
		if d > 2 {
			checkFill(t, fmt.Sprintf("edges %d columns [1, %d)", trial, d-1), d, 1, d-1, bins, idx, resid)
		}
	}
}

// FuzzFill puts arbitrary residual bits and bin bytes through both fills:
// shape picks the matrix width and the column chunk, every 8 bytes of raw are
// one sample's residual, and binsRaw (cycled) its bin bytes. A fifth of
// `make fuzz`.
func FuzzFill(f *testing.F) {
	f.Add(uint16(0x1234), []byte{0, 1, 2, 31}, []byte("\x00\x00\x00\x00\x00\x00\xf8\x7f\x01\x00\x00\x00\x00\x00\xf8\xff"))
	f.Add(uint16(7), []byte{5}, []byte("\xff\xff\xff\xff\xff\xff\xef\x7f\xff\xff\xff\xff\xff\xff\xef\x7f"))
	f.Add(uint16(0xffff), []byte{200, 17, 3}, []byte("\x01\x00\x00\x00\x00\x00\x00\x80"))
	f.Fuzz(func(t *testing.T, shape uint16, binsRaw, raw []byte) {
		n := min(len(raw)/8, 256)
		if n == 0 || len(binsRaw) == 0 {
			return
		}
		d := 1 + int(shape)%48
		lo := int(shape>>6) % d
		hi := lo + 1 + int(shape>>11)%(d-lo)
		resid := make([]float64, n)
		for i := range resid {
			resid[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		bins := make([]uint8, n*d)
		for i := range bins {
			bins[i] = binsRaw[i%len(binsRaw)] % numBins
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
			if shape&1 == 1 {
				idx[i] = n - 1 - i
			}
		}
		checkFill(t, "fuzz", d, lo, hi, bins, idx, resid)
	})
}
