// Package cpu answers, from CPUID and XGETBV, which vector extensions the
// host can execute: the one place the packages with assembly kernels (nn,
// costmodel) choose their paths from, once, at init.
package cpu

// HasAVX reports whether the CPU has AVX and the OS saves the YMM state.
func HasAVX() bool

// HasAVX2FMA reports AVX2 and FMA; it means something only after HasAVX.
func HasAVX2FMA() bool
