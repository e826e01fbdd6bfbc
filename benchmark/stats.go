package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// gmean is the geometric mean; ratios of program run times average this way.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// calibSink keeps the calibration loop's result live so the compiler cannot
// remove the loop.
var calibSink float64

// calibIters is the fixed length of the host-speed probe.
const calibIters = 200_000_000

// calibrate times a fixed pure-Go floating-point/branch loop. It touches no
// memory and calls nothing, so its time moves only with the host (frequency,
// steal, a noisy neighbour) and never with the code under test: two result
// sets whose calibration differs by more than 5% were taken on different
// machines as far as timing is concerned.
func calibrate(cfg runConfig) float64 {
	iters := scaled(cfg, calibIters, calibIters/100)
	start := time.Now()
	x, acc := 1.0, 0.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
		if x > 2 {
			x--
			acc++
		}
	}
	calibSink = x + acc
	return time.Since(start).Seconds() * 1e3
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM). The
// driver runs one process per workload, so the value belongs to that workload
// alone. Platforms without /proc fall back to the Go runtime's Sys figure.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// fileSHA256 returns the hex digest and the newline count of a file.
func fileSHA256(path string) (digest string, lines int, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", 0, 0, err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), strings.Count(string(data), "\n"), int64(len(data)), nil
}

// totalAlloc returns the cumulative bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// mallocs returns the cumulative heap object count allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
