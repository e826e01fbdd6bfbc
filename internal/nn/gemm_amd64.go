package nn

func cpuHasAVX() bool

//go:noescape
func gemmAVX(c *float64, ldc int, a *float64, ars, acs int, b *float64, ldb, m, n8, k int)

// gemm's path is chosen once, here, from CPUID and XGETBV.
func init() {
	if cpuHasAVX() {
		gemmTiles = gemmAVX
	}
}
