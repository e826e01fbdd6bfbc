// Package harl is a from-scratch Go reproduction of "HARL: Hierarchical
// Adaptive Reinforcement Learning Based Auto Scheduler for Neural Networks"
// (Zhang, He, Zhang — ICPP 2022).
//
// The package exposes the system's public surface: workloads (the paper's
// Table-6 tensor operators, the three benchmark networks, and custom
// operators), targets (simulated CPU/GPU platforms), scheduler presets (HARL
// and the baselines it is compared against), and the tuning entry points.
// The paper's experiment grid is regenerated by cmd/harl-bench, outside this
// package (README: "Regenerating the paper's tables and figures").
//
// Quick start:
//
//	w := harl.GEMM(512, 512, 512, 1)
//	res, err := harl.TuneOperator(w, harl.CPU(), harl.Options{Scheduler: "harl", Trials: 300})
//	if err != nil { ... }
//	fmt.Printf("%.1f GFLOP/s in %d trials\n", res.GFLOPS, res.Trials)
package harl

import (
	"fmt"
	"strconv"
	"strings"

	"harl/internal/hardware"
	"harl/internal/texpr"
	"harl/internal/workload"
)

// Target is an execution platform the auto-scheduler tunes for.
type Target struct {
	plat *hardware.Platform
}

// CPU returns the paper's CPU platform (Intel Xeon 6226R class, 32 cores,
// AVX-512).
func CPU() Target { return Target{hardware.CPUXeon6226R()} }

// TargetByName resolves a platform short name (see Targets).
func TargetByName(name string) (Target, error) {
	if p := hardware.ByName(name); p != nil {
		return Target{p}, nil
	}
	return Target{}, fmt.Errorf("harl: unknown target %q (want %s)", name, strings.Join(hardware.PlatformNames(), " or "))
}

// Targets lists the accepted target platform names.
func Targets() []string { return hardware.PlatformNames() }

// Name returns the platform identifier.
func (t Target) Name() string { return t.plat.Name }

// Workload is a tuning target: one subgraph of tensor computation.
type Workload struct {
	sg *texpr.Subgraph
}

// Name returns the workload identifier.
func (w Workload) Name() string { return w.sg.Name }

// FLOPs returns the floating-point work of one execution.
func (w Workload) FLOPs() float64 { return w.sg.FLOPs() }

// Describe renders the workload's stage structure.
func (w Workload) Describe() string { return w.sg.String() }

// GEMM builds an M×K×N matrix multiplication workload (batch ≥ 1).
func GEMM(m, k, n, batch int) Workload {
	return Workload{workload.GEMM(fmt.Sprintf("GEMM-%dx%dx%d-b%d", m, k, n, batch), batch, m, k, n)}
}

// Conv1D builds a 1-D convolution workload with the paper's C1D parameter
// convention (L, Cin, Cout, kernel, stride, padding).
func Conv1D(l, cin, cout, kernel, stride, pad, batch int) Workload {
	return Workload{workload.Conv1D(fmt.Sprintf("C1D-%d-%d-%d-b%d", l, cin, cout, batch), batch, l, cin, cout, kernel, stride, pad)}
}

// Conv2D builds a 2-D convolution workload (H, W, Cin, Cout, kernel, stride,
// padding).
func Conv2D(h, w, cin, cout, kernel, stride, pad, batch int) Workload {
	return Workload{workload.Conv2D(fmt.Sprintf("C2D-%dx%d-%d-%d-b%d", h, w, cin, cout, batch), batch, h, w, cin, cout, kernel, stride, pad)}
}

// Conv3D builds a 3-D convolution workload.
func Conv3D(d, h, w, cin, cout, kernel, stride, pad, batch int) Workload {
	return Workload{workload.Conv3D(fmt.Sprintf("C3D-%dx%dx%d-%d-%d-b%d", d, h, w, cin, cout, batch), batch, d, h, w, cin, cout, kernel, stride, pad)}
}

// ConvT2D builds a transposed 2-D convolution workload.
func ConvT2D(h, w, cin, cout, kernel, stride, pad, batch int) Workload {
	return Workload{workload.ConvT2D(fmt.Sprintf("T2D-%dx%d-%d-%d-b%d", h, w, cin, cout, batch), batch, h, w, cin, cout, kernel, stride, pad)}
}

// TableSixWorkloads returns the four Table-6 configurations of an operator
// category ("GEMM-S", "GEMM-M", "GEMM-L", "C1D", "C2D", "C3D", "T2D").
func TableSixWorkloads(category string, batch int) []Workload {
	var out []Workload
	for _, sg := range workload.SuiteFor(category, batch) {
		out = append(out, Workload{sg})
	}
	return out
}

// CustomAxis describes one iteration axis of a custom operator.
type CustomAxis struct {
	Name   string
	Extent int
	Reduce bool
}

// CustomOp builds a single-stage custom compute workload from its iteration
// domain. flopsPerPoint is the FLOP count per point of the full domain;
// reuse marks the stage as data-reusing (enables tiling/cache-write sketch
// rules). Input accesses are synthesized: one tensor over the spatial axes
// and, if reductions exist, one over (reduce × last spatial) — the shape a
// contraction exhibits.
func CustomOp(name string, axes []CustomAxis, flopsPerPoint float64, reuse bool) (Workload, error) {
	st := &texpr.Stage{
		Name:          "custom",
		Kind:          texpr.ComputeHeavy,
		FLOPsPerPoint: flopsPerPoint,
		HasDataReuse:  reuse,
	}
	var spDims, redDims []texpr.AxisRef
	for _, ax := range axes {
		if ax.Reduce {
			st.Reduce = append(st.Reduce, texpr.Iter{Name: ax.Name, Extent: ax.Extent, Kind: texpr.Reduction})
			redDims = append(redDims, texpr.AxisRef{Iter: len(st.Reduce) - 1, Reduce: true})
		} else {
			st.Spatial = append(st.Spatial, texpr.Iter{Name: ax.Name, Extent: ax.Extent, Kind: texpr.Spatial})
			spDims = append(spDims, texpr.AxisRef{Iter: len(st.Spatial) - 1})
		}
	}
	if len(st.Spatial) == 0 {
		return Workload{}, fmt.Errorf("harl: custom op %q needs at least one spatial axis", name)
	}
	if len(st.Reduce) > 0 {
		st.HasReductionParallel = true
		inDims := append(append([]texpr.AxisRef{}, spDims[:len(spDims)-1]...), redDims...)
		st.Inputs = append(st.Inputs, texpr.Access{Tensor: "A", Dims: inDims})
		st.Inputs = append(st.Inputs, texpr.Access{Tensor: "B", Dims: append(append([]texpr.AxisRef{}, redDims...), spDims[len(spDims)-1])})
	} else {
		st.Inputs = append(st.Inputs, texpr.Access{Tensor: "A", Dims: spDims})
	}
	sg, err := texpr.NewSubgraph(name, 1, st)
	if err != nil {
		return Workload{}, err
	}
	return Workload{sg}, nil
}

// Fingerprint returns the workload's stable record-log identity (the
// Workload field of its Records).
func (w Workload) Fingerprint() string { return w.sg.Fingerprint() }

// ParseShape parses a CLI-style comma-separated shape ("1024,1024,1024")
// into the dims OperatorWorkload expects — the parsing shared by harl-tune
// and harl-serve.
func ParseShape(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("harl: missing shape")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("harl: bad shape element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// OperatorWorkload builds an operator workload from its CLI-style kind and
// shape ("gemm": M,K,N; "c1d": L,Cin,Cout,K,stride,pad; "c2d"/"t2d":
// H,W,Cin,Cout,K,stride,pad; "c3d": D,H,W,Cin,Cout,K,stride,pad) — the
// parsing shared by harl-tune and harl-serve.
func OperatorWorkload(op string, dims []int, batch int) (Workload, error) {
	need := func(n int) error {
		if len(dims) != n {
			return fmt.Errorf("harl: operator %q needs %d shape values, got %d", op, n, len(dims))
		}
		return nil
	}
	switch op {
	case "gemm":
		if err := need(3); err != nil {
			return Workload{}, err
		}
		return GEMM(dims[0], dims[1], dims[2], batch), nil
	case "c1d":
		if err := need(6); err != nil {
			return Workload{}, err
		}
		return Conv1D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], batch), nil
	case "c2d":
		if err := need(7); err != nil {
			return Workload{}, err
		}
		return Conv2D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6], batch), nil
	case "c3d":
		if err := need(8); err != nil {
			return Workload{}, err
		}
		return Conv3D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6], dims[7], batch), nil
	case "t2d":
		if err := need(7); err != nil {
			return Workload{}, err
		}
		return ConvT2D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6], batch), nil
	}
	return Workload{}, fmt.Errorf("harl: unknown operator kind %q (want gemm, c1d, c2d, c3d or t2d)", op)
}

// NetworkWorkloads returns the subgraph workloads of one of the paper's
// networks (harl-serve validates a network request with it).
func NetworkWorkloads(name string, batch int) ([]Workload, error) {
	net, err := workload.NetworkByName(name, batch)
	if err != nil {
		return nil, err
	}
	out := make([]Workload, 0, len(net.Subgraphs))
	for _, sg := range net.Subgraphs {
		out = append(out, Workload{sg})
	}
	return out, nil
}
