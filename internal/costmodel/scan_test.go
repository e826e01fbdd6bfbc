package costmodel

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"harl/internal/xrand"
)

// scanModel is a model holding just what scanFeatures reads: d columns (one
// per feature) whose edge counts are lens, the binned matrix bins, and the
// node (idx, resid) with the totals bestSplit would take.
func scanModel(lens []int, bins []uint8, idx []int, resid []float64) *Model {
	d := len(lens)
	m := &Model{bins: bins, edges: make([][]float64, d), cols: make([]int, d)}
	for f, l := range lens {
		m.edges[f], m.cols[f] = make([]float64, l), f
	}
	m.hist, m.gainBuf, m.binBuf = make([][numBins]binAcc, d), make([]float64, d), make([]int32, d)
	total, totalSq := 0.0, 0.0
	for _, i := range idx {
		total += resid[i]
		totalSq += resid[i] * resid[i]
	}
	n := float64(len(idx))
	m.split.idx, m.split.resid = idx, resid
	m.split.n, m.split.total, m.split.totalSq, m.split.base = n, total, totalSq, totalSq-total*total/n
	return m
}

// checkScan runs scanFeatures over the columns [lo, hi) of m twice — the
// boundary scans through scanFeature's Go loop, then through scanLanes — each
// time over a histogram block of stale cells and result slots of canaries,
// and compares every gain by its bits and every best bin. A stale cell is
// finite, with a negative count, so a lane that went on past its column's top
// bin would find gains there. The slots and rows outside [lo, hi) must keep
// what they held.
func checkScan(t *testing.T, name string, m *Model, lo, hi int) {
	t.Helper()
	if scanLanes == nil {
		t.Skip("costmodel has no scan lanes on this host: Go loop only")
	}
	d := len(m.cols)
	stale := make([][numBins]binAcc, d)
	for c := range stale {
		for b := range stale[c] {
			k := float64(c*numBins + b)
			stale[c][b] = binAcc{n: -1 - float64(b%3), s: 1e3 - k, q: k}
		}
	}
	run := func(lanes bool) ([]float64, []int32) {
		host := scanLanes
		if !lanes {
			scanLanes = nil
		}
		copy(m.hist, stale)
		for c := range m.gainBuf {
			m.gainBuf[c], m.binBuf[c] = math.Float64frombits(canary), -7
		}
		m.scanFeatures(lo, hi)
		scanLanes = host
		for c := 0; c < d; c++ {
			if c >= lo && c < hi {
				continue
			}
			if math.Float64bits(m.gainBuf[c]) != canary || m.binBuf[c] != -7 {
				t.Fatalf("%s: column %d outside [%d, %d) was written", name, c, lo, hi)
			}
			if m.hist[c] != stale[c] {
				t.Fatalf("%s: histogram row %d outside [%d, %d) was written", name, c, lo, hi)
			}
		}
		return append([]float64(nil), m.gainBuf[lo:hi]...), append([]int32(nil), m.binBuf[lo:hi]...)
	}
	wantG, wantB := run(false)
	gotG, gotB := run(true)
	for k := range wantG {
		if math.Float64bits(gotG[k]) != math.Float64bits(wantG[k]) || gotB[k] != wantB[k] {
			t.Fatalf("%s: column %d (%d edges): lanes gain %v at bin %d, Go loop %v at bin %d",
				name, lo+k, len(m.edges[lo+k]), gotG[k], gotB[k], wantG[k], wantB[k])
		}
	}
}

// TestScanLanesMatchGo pins scanLanes to scanFeature's Go loop on the bits of
// every column's best gain and on its best bin: ragged edge counts within a
// group of four (the shorter lanes run past their top bin), bins left empty
// in some lanes or in all four, column ranges that start after 0 and stop
// before d (a runner's chunks, and a ragged remainder for the Go loop), and
// the edge residuals crowded into a few bins so infinities and NaNs of
// distinct payloads reach the sums and the divisions.
func TestScanLanesMatchGo(t *testing.T) {
	rng := xrand.New(52)
	node := func(d, n, span int, resid func() float64) *Model {
		lens := make([]int, d)
		for f := range lens {
			lens[f] = 1 + rng.Intn(numBins-1)
		}
		bins := make([]uint8, n*d)
		for i := range bins {
			bins[i] = uint8(rng.Intn(min(span, lens[i%d]+1)))
		}
		r := make([]float64, n)
		for i := range r {
			r[i] = resid()
		}
		return scanModel(lens, bins, rng.Perm(n)[:1+rng.Intn(n)], r)
	}
	for trial := 0; trial < 300; trial++ {
		d, n := 1+rng.Intn(48), 1+rng.Intn(300)
		if trial%10 == 0 {
			n = 1
		}
		m := node(d, n, 1+rng.Intn(numBins), func() float64 { return (2*rng.Float64() - 1) * math.Exp(4*rng.Float64()-2) })
		lo := rng.Intn(d)
		hi := lo + 1 + rng.Intn(d-lo)
		checkScan(t, fmt.Sprintf("trial %d (d=%d, n=%d)", trial, d, n), m, 0, d)
		checkScan(t, fmt.Sprintf("trial %d (d=%d, n=%d) columns [%d, %d)", trial, d, n, lo, hi), m, lo, hi)
	}
	for trial := 0; trial < 100; trial++ {
		d, n := 1+rng.Intn(12), 1+rng.Intn(64)
		m := node(d, n, 3, func() float64 { return residEdges[rng.Intn(len(residEdges))] })
		checkScan(t, fmt.Sprintf("edges %d", trial), m, 0, d)
		if d > 2 {
			checkScan(t, fmt.Sprintf("edges %d columns [1, %d)", trial, d-1), m, 1, d-1)
		}
	}
}

// FuzzScan puts arbitrary residual bits and bin bytes through both boundary
// scans: shape picks the matrix width and the column range, every 8 bytes of
// raw are one sample's residual, and binsRaw (cycled) gives each column's
// edge count and each cell's bin. A fifth of `make fuzz`.
func FuzzScan(f *testing.F) {
	f.Add(uint16(0x1234), []byte{0, 1, 2, 31}, []byte("\x00\x00\x00\x00\x00\x00\xf8\x7f\x01\x00\x00\x00\x00\x00\xf8\xff"))
	f.Add(uint16(7), []byte{5, 30, 2}, []byte("\xff\xff\xff\xff\xff\xff\xef\x7f\xff\xff\xff\xff\xff\xff\xef\x7f\x00\x00\x00\x00\x00\x00\xf0\x3f"))
	f.Add(uint16(0xffff), []byte{200, 17, 3, 9, 1}, []byte("\x01\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\xe0\x3f"))
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
		lens := make([]int, d)
		for c := range lens {
			lens[c] = 1 + int(binsRaw[(7*c+3)%len(binsRaw)])%(numBins-1)
		}
		bins := make([]uint8, n*d)
		for i := range bins {
			bins[i] = binsRaw[i%len(binsRaw)] % uint8(lens[i%d]+1)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
			if shape&1 == 1 {
				idx[i] = n - 1 - i
			}
		}
		checkScan(t, "fuzz", scanModel(lens, bins, idx, resid), lo, hi)
	})
}
