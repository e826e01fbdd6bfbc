package costmodel

import "harl/internal/cpu"

// fillAVX is scanFeatures' histogram fill in fill_amd64.s, only ever called
// through fillLanes.
func fillAVX(hist *[numBins]binAcc, bins *uint8, d int, idx *int, n int, resid *float64, w int)

func init() {
	if cpu.HasAVX() {
		fillLanes = fillAVX
	}
}
