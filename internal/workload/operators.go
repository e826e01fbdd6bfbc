// Package workload defines the tuning targets of the HARL reproduction: the
// tensor-operator benchmark suite of the paper's Section 6.2 (Table 6
// configurations, exactly as published) and the three end-to-end networks of
// Section 6.3 (BERT, ResNet-50, MobileNet-V2) expressed as weighted subgraph
// inventories, which is the only view of a network the auto-scheduler consumes.
package workload

import (
	"fmt"

	"harl/internal/texpr"
)

// GEMM builds a single-stage matrix-multiply subgraph C[M,N] = A[M,K]·B[K,N].
// batch > 1 adds a leading spatial batch axis on A and C (dense-layer style;
// the weight matrix B is shared across the batch).
func GEMM(name string, batch, m, k, n int) *texpr.Subgraph {
	st := &texpr.Stage{
		Name:                 "matmul",
		Kind:                 texpr.ComputeHeavy,
		FLOPsPerPoint:        2,
		HasDataReuse:         true,
		HasReductionParallel: true,
	}
	spA := []texpr.AxisRef{}
	if batch > 1 {
		st.Spatial = append(st.Spatial, texpr.Iter{Name: "b", Extent: batch, Kind: texpr.Spatial})
		spA = append(spA, texpr.AxisRef{Iter: 0})
	}
	base := len(st.Spatial)
	st.Spatial = append(st.Spatial,
		texpr.Iter{Name: "i", Extent: m, Kind: texpr.Spatial},
		texpr.Iter{Name: "j", Extent: n, Kind: texpr.Spatial},
	)
	st.Reduce = []texpr.Iter{{Name: "k", Extent: k, Kind: texpr.Reduction}}
	aDims := append(append([]texpr.AxisRef{}, spA...),
		texpr.AxisRef{Iter: base},            // i
		texpr.AxisRef{Iter: 0, Reduce: true}, // k
	)
	st.Inputs = []texpr.Access{
		{Tensor: "A", Dims: aDims},
		{Tensor: "B", Dims: []texpr.AxisRef{{Iter: 0, Reduce: true}, {Iter: base + 1}}},
	}
	return texpr.MustSubgraph(name, 1, st)
}

// batchGEMM builds a batched matmul C[b,M,N] = A[b,M,K]·B[b,K,N] where both
// operands carry the batch axis (attention score/context computation in BERT).
func batchGEMM(name string, batch, m, k, n int) *texpr.Subgraph {
	st := &texpr.Stage{
		Name:                 "batch_matmul",
		Kind:                 texpr.ComputeHeavy,
		FLOPsPerPoint:        2,
		HasDataReuse:         true,
		HasReductionParallel: true,
		Spatial: []texpr.Iter{
			{Name: "b", Extent: batch, Kind: texpr.Spatial},
			{Name: "i", Extent: m, Kind: texpr.Spatial},
			{Name: "j", Extent: n, Kind: texpr.Spatial},
		},
		Reduce: []texpr.Iter{{Name: "k", Extent: k, Kind: texpr.Reduction}},
		Inputs: []texpr.Access{
			{Tensor: "A", Dims: []texpr.AxisRef{{Iter: 0}, {Iter: 1}, {Iter: 0, Reduce: true}}},
			{Tensor: "B", Dims: []texpr.AxisRef{{Iter: 0}, {Iter: 0, Reduce: true}, {Iter: 2}}},
		},
	}
	return texpr.MustSubgraph(name, 1, st)
}

// convOut returns the output extent of each input extent under a k-wide
// window at the given stride and padding (at least 1).
func convOut(k, stride, pad int, in ...int) []int {
	out := make([]int, len(in))
	for i, x := range in {
		out[i] = max((x+2*pad-k)/stride+1, 1)
	}
	return out
}

// gridNames names the output grid axes of a 1-, 2- or 3-D window; each window
// reduce axis is "k" plus its grid axis's last letter (kl; kh, kw; kd, kh, kw).
var gridNames = [][]string{1: {"l"}, 2: {"oh", "ow"}, 3: {"od", "oh", "ow"}}

// slide builds a sliding-window multiply-accumulate stage (a convolution;
// pool2D adjusts it): spatial axes n, one per grid extent, then the channel;
// reduce axes ci when cin > 0 (which also makes the reduction parallel), then
// a win-wide window axis per grid axis. data reads each grid axis through its
// window (Scale stride, Offset win−stride), then ci or, with no ci, the
// channel; weight reads the channel, ci and the window.
func slide(name string, batch int, grid []int, ch, cin, win, stride int) *texpr.Stage {
	st := &texpr.Stage{
		Name:                 name,
		Kind:                 texpr.ComputeHeavy,
		FLOPsPerPoint:        2,
		HasDataReuse:         true,
		HasReductionParallel: cin > 0,
		Spatial:              []texpr.Iter{{Name: "n", Extent: batch, Kind: texpr.Spatial}},
	}
	chName, chIter := "c", len(grid)+1
	weight := []texpr.AxisRef{{Iter: chIter}}
	if cin > 0 {
		chName = "co"
		st.Reduce = []texpr.Iter{{Name: "ci", Extent: cin, Kind: texpr.Reduction}}
		weight = append(weight, texpr.AxisRef{Iter: 0, Reduce: true})
	}
	data := []texpr.AxisRef{{Iter: 0}}
	for i, g := range grid {
		axis := gridNames[len(grid)][i]
		weight = append(weight, texpr.AxisRef{Iter: len(st.Reduce), Reduce: true})
		st.Spatial = append(st.Spatial, texpr.Iter{Name: axis, Extent: g, Kind: texpr.Spatial})
		st.Reduce = append(st.Reduce, texpr.Iter{Name: "k" + axis[len(axis)-1:], Extent: win, Kind: texpr.Reduction})
		data = append(data, texpr.AxisRef{Iter: i + 1, Scale: stride, Offset: win - stride})
	}
	st.Spatial = append(st.Spatial, texpr.Iter{Name: chName, Extent: ch, Kind: texpr.Spatial})
	if cin > 0 {
		data = append(data, texpr.AxisRef{Iter: 0, Reduce: true})
	} else {
		data = append(data, texpr.AxisRef{Iter: chIter})
	}
	st.Inputs = []texpr.Access{{Tensor: "data", Dims: data}, {Tensor: "weight", Dims: weight}}
	return st
}

// epilogue builds an inlinable elementwise stage over main's spatial domain
// that reads main's output as "acc" (a fused bias+activation).
func epilogue(name string, flops float64, main *texpr.Stage) *texpr.Stage {
	dims := make([]texpr.AxisRef, len(main.Spatial))
	for i := range dims {
		dims[i] = texpr.AxisRef{Iter: i}
	}
	return &texpr.Stage{
		Name:          name,
		Kind:          texpr.Elementwise,
		FLOPsPerPoint: flops,
		CanInline:     true,
		Spatial:       append([]texpr.Iter(nil), main.Spatial...),
		Inputs:        []texpr.Access{{Tensor: "acc", Producer: main.Name, Dims: dims}},
	}
}

// Conv1D builds a 1-D convolution subgraph over (batch, L, Cin) -> (batch, Lo, Cout).
func Conv1D(name string, batch, l, cin, cout, k, stride, pad int) *texpr.Subgraph {
	return texpr.MustSubgraph(name, 1, slide("conv1d", batch, convOut(k, stride, pad, l), cout, cin, k, stride))
}

// Conv2D builds a 2-D convolution subgraph (NHWC-style iteration domain).
func Conv2D(name string, batch, h, w, cin, cout, k, stride, pad int) *texpr.Subgraph {
	return texpr.MustSubgraph(name, 1, conv2DStage(batch, h, w, cin, cout, k, stride, pad))
}

func conv2DStage(batch, h, w, cin, cout, k, stride, pad int) *texpr.Stage {
	return slide("conv2d", batch, convOut(k, stride, pad, h, w), cout, cin, k, stride)
}

// Conv3D builds a 3-D convolution subgraph (video-style NDHWC domain).
func Conv3D(name string, batch, d, h, w, cin, cout, k, stride, pad int) *texpr.Subgraph {
	return texpr.MustSubgraph(name, 1, slide("conv3d", batch, convOut(k, stride, pad, d, h, w), cout, cin, k, stride))
}

// ConvT2D builds a transposed 2-D convolution. The output grid is the
// upsampled one (Ho = (H-1)*stride - 2*pad + K); the input access window is
// the standard fractionally-strided approximation used for footprint modeling:
// a unit-stride window of the input elements one output point touches per axis.
func ConvT2D(name string, batch, h, w, cin, cout, k, stride, pad int) *texpr.Subgraph {
	grid := []int{max((h-1)*stride-2*pad+k, 1), max((w-1)*stride-2*pad+k, 1)}
	win := (k + stride - 1) / stride
	return texpr.MustSubgraph(name, 1, slide("conv2d_transpose", batch, grid, cout, cin, win, 1))
}

// DepthwiseConv2D builds a depthwise 2-D convolution (MobileNet building block):
// each channel is convolved independently, so the channel axis is spatial and
// only the kernel window is reduced.
//
//lint:allow deadexport search/search_test.go builds a depthwise subgraph with it
func DepthwiseConv2D(name string, batch, h, w, c, k, stride, pad int) *texpr.Subgraph {
	return texpr.MustSubgraph(name, 1, slide("depthwise_conv2d", batch, convOut(k, stride, pad, h, w), c, 0, k, stride))
}

// Softmax builds a two-stage softmax subgraph over (rows, cols): a reduction
// stage (max+sum of exp) followed by an elementwise normalization consuming it.
//
//lint:allow deadexport search/search_test.go and sketch/sketch_test.go build subgraphs with it
func Softmax(name string, rows, cols int) *texpr.Subgraph {
	reduceSt := &texpr.Stage{
		Name:                 "softmax_reduce",
		Kind:                 texpr.ReduceLight,
		FLOPsPerPoint:        3, // exp + running max + running sum
		HasReductionParallel: true,
		Spatial:              []texpr.Iter{{Name: "r", Extent: rows, Kind: texpr.Spatial}},
		Reduce:               []texpr.Iter{{Name: "c", Extent: cols, Kind: texpr.Reduction}},
		Inputs: []texpr.Access{
			{Tensor: "logits", Dims: []texpr.AxisRef{{Iter: 0}, {Iter: 0, Reduce: true}}},
		},
	}
	normSt := &texpr.Stage{
		Name:          "softmax_norm",
		Kind:          texpr.Elementwise,
		FLOPsPerPoint: 2, // exp reuse + divide
		CanInline:     true,
		Spatial: []texpr.Iter{
			{Name: "r", Extent: rows, Kind: texpr.Spatial},
			{Name: "c", Extent: cols, Kind: texpr.Spatial},
		},
		Inputs: []texpr.Access{
			{Tensor: "logits", Dims: []texpr.AxisRef{{Iter: 0}, {Iter: 1}}},
			{Tensor: "rowstats", Producer: "softmax_reduce", Dims: []texpr.AxisRef{{Iter: 0}}},
		},
	}
	return texpr.MustSubgraph(name, 1, reduceSt, normSt)
}

// Elementwise builds a single-stage elementwise subgraph over a flat shape
// with the given per-element FLOP cost (e.g. 8 for GELU, 2 for add+scale).
//
//lint:allow deadexport search/search_test.go and sketch/sketch_test.go build subgraphs with it
func Elementwise(name string, elems int, flopsPerElem float64, inputs int) *texpr.Subgraph {
	st := &texpr.Stage{
		Name:          "ewise",
		Kind:          texpr.Elementwise,
		FLOPsPerPoint: flopsPerElem,
		CanInline:     true,
		Spatial:       []texpr.Iter{{Name: "x", Extent: elems, Kind: texpr.Spatial}},
	}
	for i := 0; i < inputs; i++ {
		st.Inputs = append(st.Inputs, texpr.Access{
			Tensor: fmt.Sprintf("in%d", i),
			Dims:   []texpr.AxisRef{{Iter: 0}},
		})
	}
	return texpr.MustSubgraph(name, 1, st)
}

// GEMMEpilogue builds a GEMM followed by an elementwise epilogue stage
// (bias+activation) consuming its output — the fused dense pattern that gives
// the sketch generator its Tiling-with-Fusion and Inline choices.
//
//lint:allow deadexport schedule/serialize_test.go and sketch/sketch_test.go build subgraphs with it
func GEMMEpilogue(name string, batch, m, k, n int, epilogueFLOPs float64) *texpr.Subgraph {
	mat := GEMM(name, batch, m, k, n).Stages[0]
	return texpr.MustSubgraph(name, 1, mat, epilogue("epilogue", epilogueFLOPs, mat))
}

// Conv2DReLU builds a conv2d followed by a fused bias+ReLU elementwise stage —
// the canonical CNN subgraph after operator fusion.
//
//lint:allow deadexport the root bench_test.go, hardware/hardware_test.go, schedule/schedule_test.go, search/search_test.go and sketch/sketch_test.go build subgraphs with it
func Conv2DReLU(name string, weight, batch, h, w, cin, cout, k, stride, pad int) *texpr.Subgraph {
	conv := conv2DStage(batch, h, w, cin, cout, k, stride, pad)
	return texpr.MustSubgraph(name, weight, conv, epilogue("bias_relu", 2, conv))
}

// pool2D builds a pooling subgraph: a ReduceLight window over each channel
// with no weight.
func pool2D(name string, batch, h, w, c, k, stride int) *texpr.Subgraph {
	st := slide("pool2d", batch, convOut(k, stride, 0, h, w), c, 0, k, stride)
	st.Kind, st.FLOPsPerPoint, st.HasDataReuse, st.Inputs = texpr.ReduceLight, 1, false, st.Inputs[:1]
	return texpr.MustSubgraph(name, 1, st)
}

// OperatorConfig is one row of the paper's Table 6.
type OperatorConfig struct {
	Category string // GEMM-S, GEMM-M, GEMM-L, C1D, C2D, C3D, T2D
	Params   []int
}

// table6 returns the complete operator-benchmark grid from Appendix A.3 of
// the paper: 7 categories × 4 configurations each.
func table6() []OperatorConfig {
	return []OperatorConfig{
		{"GEMM-S", []int{128, 128, 128}}, {"GEMM-S", []int{128, 256, 128}},
		{"GEMM-S", []int{256, 256, 256}}, {"GEMM-S", []int{512, 32, 512}},

		{"GEMM-M", []int{512, 512, 512}}, {"GEMM-M", []int{128, 1536, 512}},
		{"GEMM-M", []int{128, 512, 1536}}, {"GEMM-M", []int{256, 1024, 512}},

		{"GEMM-L", []int{1024, 1024, 1024}}, {"GEMM-L", []int{128, 3072, 768}},
		{"GEMM-L", []int{128, 768, 3072}}, {"GEMM-L", []int{256, 1536, 768}},

		{"C1D", []int{256, 64, 128, 3, 2, 1}}, {"C1D", []int{128, 128, 256, 1, 2, 0}},
		{"C1D", []int{64, 256, 256, 5, 1, 2}}, {"C1D", []int{32, 512, 512, 3, 1, 1}},

		{"C2D", []int{224, 224, 3, 64, 7, 2, 3}}, {"C2D", []int{56, 56, 64, 64, 1, 1, 0}},
		{"C2D", []int{14, 14, 256, 256, 3, 1, 1}}, {"C2D", []int{7, 7, 512, 512, 3, 1, 1}},

		{"C3D", []int{16, 224, 224, 3, 64, 7, 2, 3}}, {"C3D", []int{16, 56, 56, 64, 64, 1, 1, 0}},
		{"C3D", []int{16, 14, 14, 256, 256, 3, 1, 1}}, {"C3D", []int{16, 7, 7, 512, 512, 3, 1, 1}},

		{"T2D", []int{4, 4, 512, 256, 4, 2, 1}}, {"T2D", []int{8, 8, 256, 128, 4, 2, 1}},
		{"T2D", []int{16, 16, 128, 64, 4, 2, 1}}, {"T2D", []int{32, 32, 64, 3, 4, 2, 1}},
	}
}

// OperatorCategories lists the Table 6 categories in presentation order
// (the x-axis of Figures 5 and 6).
func OperatorCategories() []string {
	return []string{"GEMM-S", "GEMM-M", "GEMM-L", "C1D", "C2D", "C3D", "T2D"}
}

// Build instantiates the configuration at the given batch size.
func (c OperatorConfig) Build(batch int) *texpr.Subgraph {
	name := fmt.Sprintf("%s%v-b%d", c.Category, c.Params, batch)
	p := c.Params
	switch c.Category {
	case "GEMM-S", "GEMM-M", "GEMM-L":
		return GEMM(name, batch, p[0], p[1], p[2])
	case "C1D":
		return Conv1D(name, batch, p[0], p[1], p[2], p[3], p[4], p[5])
	case "C2D":
		return Conv2D(name, batch, p[0], p[1], p[2], p[3], p[4], p[5], p[6])
	case "C3D":
		return Conv3D(name, batch, p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7])
	case "T2D":
		return ConvT2D(name, batch, p[0], p[1], p[2], p[3], p[4], p[5], p[6])
	}
	panic("workload: unknown operator category " + c.Category)
}

// SuiteFor returns the four Table 6 subgraphs of one category at a batch size.
func SuiteFor(category string, batch int) []*texpr.Subgraph {
	var out []*texpr.Subgraph
	for _, cfg := range table6() {
		if cfg.Category == category {
			out = append(out, cfg.Build(batch))
		}
	}
	if len(out) == 0 {
		panic("workload: unknown operator category " + category)
	}
	return out
}
