package nn

import "harl/internal/cpu"

// The assembly of gemm_amd64.s and lanes_amd64.s, only ever called through
// gemmTiles and lanes, where a go:noescape would count for nothing.
func gemmAVX(c *float64, ldc int, a *float64, ars, acs int, b *float64, ldb, m, n, k int)
func adamAVX(w, gw, m, v *float64, n int, inv, bc1, bc2, lr float64)
func expAVX(x *float64, groups int) int
func logAVX(x *float64, groups int) int
func tanhAVX(x *float64, groups int) int
func rowOpAVX(op int, x, y *float64, n int, a, b float64)
func fillRowsAVX(dst, src *float64, rows, cols int)
func transposeAVX(dst, src *float64, rows, cols int)

// Every path is chosen once, here, from what package cpu reports.
func init() {
	if cpu.HasAVX() {
		gemmTiles = gemmAVX
		if cpu.HasAVX2FMA() {
			lanes.adam, lanes.exp, lanes.log, lanes.tanh = adamAVX, expAVX, logAVX, tanhAVX
			lanes.rowOp, lanes.fillRows, lanes.transpose = rowOpAVX, fillRowsAVX, transposeAVX
		}
	}
}
