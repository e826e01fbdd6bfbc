package costmodel

import "harl/internal/cpu"

// fillAVX and scanAVX are scanFeatures' histogram fill (fill_amd64.s) and
// four-column boundary scan (scan_amd64.s), only ever called through
// fillLanes and scanLanes.
func fillAVX(hist *[numBins]binAcc, bins *uint8, d int, idx *int, n int, resid *float64, w int)
func scanAVX(hist *[numBins]binAcc, nb int, n, total, totalSq, base float64, gain *float64, bin *int32)

func init() {
	if cpu.HasAVX() {
		fillLanes, scanLanes = fillAVX, scanAVX
	}
}
