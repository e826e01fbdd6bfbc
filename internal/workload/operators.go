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

func convOut(in, k, stride, pad int) int {
	o := (in+2*pad-k)/stride + 1
	if o < 1 {
		o = 1
	}
	return o
}

// Conv1D builds a 1-D convolution subgraph over (batch, L, Cin) -> (batch, Lo, Cout).
func Conv1D(name string, batch, l, cin, cout, k, stride, pad int) *texpr.Subgraph {
	lo := convOut(l, k, stride, pad)
	st := &texpr.Stage{
		Name:                 "conv1d",
		Kind:                 texpr.ComputeHeavy,
		FLOPsPerPoint:        2,
		HasDataReuse:         true,
		HasReductionParallel: true,
		Spatial: []texpr.Iter{
			{Name: "n", Extent: batch, Kind: texpr.Spatial},
			{Name: "l", Extent: lo, Kind: texpr.Spatial},
			{Name: "co", Extent: cout, Kind: texpr.Spatial},
		},
		Reduce: []texpr.Iter{
			{Name: "ci", Extent: cin, Kind: texpr.Reduction},
			{Name: "kl", Extent: k, Kind: texpr.Reduction},
		},
		Inputs: []texpr.Access{
			{Tensor: "data", Dims: []texpr.AxisRef{
				{Iter: 0},
				{Iter: 1, Scale: stride, Offset: k - stride},
				{Iter: 0, Reduce: true},
			}},
			{Tensor: "weight", Dims: []texpr.AxisRef{
				{Iter: 2}, {Iter: 0, Reduce: true}, {Iter: 1, Reduce: true},
			}},
		},
	}
	return texpr.MustSubgraph(name, 1, st)
}

// Conv2D builds a 2-D convolution subgraph (NHWC-style iteration domain).
func Conv2D(name string, batch, h, w, cin, cout, k, stride, pad int) *texpr.Subgraph {
	st := conv2DStage("conv2d", batch, h, w, cin, cout, k, stride, pad)
	return texpr.MustSubgraph(name, 1, st)
}

func conv2DStage(stageName string, batch, h, w, cin, cout, k, stride, pad int) *texpr.Stage {
	oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	return &texpr.Stage{
		Name:                 stageName,
		Kind:                 texpr.ComputeHeavy,
		FLOPsPerPoint:        2,
		HasDataReuse:         true,
		HasReductionParallel: true,
		Spatial: []texpr.Iter{
			{Name: "n", Extent: batch, Kind: texpr.Spatial},
			{Name: "oh", Extent: oh, Kind: texpr.Spatial},
			{Name: "ow", Extent: ow, Kind: texpr.Spatial},
			{Name: "co", Extent: cout, Kind: texpr.Spatial},
		},
		Reduce: []texpr.Iter{
			{Name: "ci", Extent: cin, Kind: texpr.Reduction},
			{Name: "kh", Extent: k, Kind: texpr.Reduction},
			{Name: "kw", Extent: k, Kind: texpr.Reduction},
		},
		Inputs: []texpr.Access{
			{Tensor: "data", Dims: []texpr.AxisRef{
				{Iter: 0},
				{Iter: 1, Scale: stride, Offset: k - stride},
				{Iter: 2, Scale: stride, Offset: k - stride},
				{Iter: 0, Reduce: true},
			}},
			{Tensor: "weight", Dims: []texpr.AxisRef{
				{Iter: 3}, {Iter: 0, Reduce: true}, {Iter: 1, Reduce: true}, {Iter: 2, Reduce: true},
			}},
		},
	}
}

// Conv3D builds a 3-D convolution subgraph (video-style NDHWC domain).
func Conv3D(name string, batch, d, h, w, cin, cout, k, stride, pad int) *texpr.Subgraph {
	od, oh, ow := convOut(d, k, stride, pad), convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	st := &texpr.Stage{
		Name:                 "conv3d",
		Kind:                 texpr.ComputeHeavy,
		FLOPsPerPoint:        2,
		HasDataReuse:         true,
		HasReductionParallel: true,
		Spatial: []texpr.Iter{
			{Name: "n", Extent: batch, Kind: texpr.Spatial},
			{Name: "od", Extent: od, Kind: texpr.Spatial},
			{Name: "oh", Extent: oh, Kind: texpr.Spatial},
			{Name: "ow", Extent: ow, Kind: texpr.Spatial},
			{Name: "co", Extent: cout, Kind: texpr.Spatial},
		},
		Reduce: []texpr.Iter{
			{Name: "ci", Extent: cin, Kind: texpr.Reduction},
			{Name: "kd", Extent: k, Kind: texpr.Reduction},
			{Name: "kh", Extent: k, Kind: texpr.Reduction},
			{Name: "kw", Extent: k, Kind: texpr.Reduction},
		},
		Inputs: []texpr.Access{
			{Tensor: "data", Dims: []texpr.AxisRef{
				{Iter: 0},
				{Iter: 1, Scale: stride, Offset: k - stride},
				{Iter: 2, Scale: stride, Offset: k - stride},
				{Iter: 3, Scale: stride, Offset: k - stride},
				{Iter: 0, Reduce: true},
			}},
			{Tensor: "weight", Dims: []texpr.AxisRef{
				{Iter: 4}, {Iter: 0, Reduce: true}, {Iter: 1, Reduce: true},
				{Iter: 2, Reduce: true}, {Iter: 3, Reduce: true},
			}},
		},
	}
	return texpr.MustSubgraph(name, 1, st)
}

// ConvT2D builds a transposed 2-D convolution. The output grid is the
// upsampled one (Ho = (H-1)*stride - 2*pad + K); the input access window is
// the standard fractionally-strided approximation used for footprint modeling.
func ConvT2D(name string, batch, h, w, cin, cout, k, stride, pad int) *texpr.Subgraph {
	oh := (h-1)*stride - 2*pad + k
	ow := (w-1)*stride - 2*pad + k
	if oh < 1 {
		oh = 1
	}
	if ow < 1 {
		ow = 1
	}
	win := (k + stride - 1) / stride // input elements touched per output point, per axis
	st := &texpr.Stage{
		Name:                 "conv2d_transpose",
		Kind:                 texpr.ComputeHeavy,
		FLOPsPerPoint:        2,
		HasDataReuse:         true,
		HasReductionParallel: true,
		Spatial: []texpr.Iter{
			{Name: "n", Extent: batch, Kind: texpr.Spatial},
			{Name: "oh", Extent: oh, Kind: texpr.Spatial},
			{Name: "ow", Extent: ow, Kind: texpr.Spatial},
			{Name: "co", Extent: cout, Kind: texpr.Spatial},
		},
		Reduce: []texpr.Iter{
			{Name: "ci", Extent: cin, Kind: texpr.Reduction},
			{Name: "kh", Extent: win, Kind: texpr.Reduction},
			{Name: "kw", Extent: win, Kind: texpr.Reduction},
		},
		Inputs: []texpr.Access{
			{Tensor: "data", Dims: []texpr.AxisRef{
				{Iter: 0},
				{Iter: 1, Scale: 1, Offset: win - 1}, // fractional stride ≈ unit stride + window
				{Iter: 2, Scale: 1, Offset: win - 1},
				{Iter: 0, Reduce: true},
			}},
			{Tensor: "weight", Dims: []texpr.AxisRef{
				{Iter: 3}, {Iter: 0, Reduce: true}, {Iter: 1, Reduce: true}, {Iter: 2, Reduce: true},
			}},
		},
	}
	return texpr.MustSubgraph(name, 1, st)
}

// DepthwiseConv2D builds a depthwise 2-D convolution (MobileNet building block):
// each channel is convolved independently, so the channel axis is spatial and
// only the kernel window is reduced.
//
//lint:allow deadexport search/search_test.go builds a depthwise subgraph with it
func DepthwiseConv2D(name string, batch, h, w, c, k, stride, pad int) *texpr.Subgraph {
	oh, ow := convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	st := &texpr.Stage{
		Name:          "depthwise_conv2d",
		Kind:          texpr.ComputeHeavy,
		FLOPsPerPoint: 2,
		HasDataReuse:  true,
		Spatial: []texpr.Iter{
			{Name: "n", Extent: batch, Kind: texpr.Spatial},
			{Name: "oh", Extent: oh, Kind: texpr.Spatial},
			{Name: "ow", Extent: ow, Kind: texpr.Spatial},
			{Name: "c", Extent: c, Kind: texpr.Spatial},
		},
		Reduce: []texpr.Iter{
			{Name: "kh", Extent: k, Kind: texpr.Reduction},
			{Name: "kw", Extent: k, Kind: texpr.Reduction},
		},
		Inputs: []texpr.Access{
			{Tensor: "data", Dims: []texpr.AxisRef{
				{Iter: 0},
				{Iter: 1, Scale: stride, Offset: k - stride},
				{Iter: 2, Scale: stride, Offset: k - stride},
				{Iter: 3},
			}},
			{Tensor: "weight", Dims: []texpr.AxisRef{
				{Iter: 3}, {Iter: 0, Reduce: true}, {Iter: 1, Reduce: true},
			}},
		},
	}
	return texpr.MustSubgraph(name, 1, st)
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
	g := GEMM(name, batch, m, k, n)
	mat := g.Stages[0]
	ep := &texpr.Stage{
		Name:          "epilogue",
		Kind:          texpr.Elementwise,
		FLOPsPerPoint: epilogueFLOPs,
		CanInline:     true,
		Spatial:       append([]texpr.Iter(nil), mat.Spatial...),
	}
	dims := make([]texpr.AxisRef, len(ep.Spatial))
	for i := range dims {
		dims[i] = texpr.AxisRef{Iter: i}
	}
	ep.Inputs = []texpr.Access{{Tensor: "acc", Producer: mat.Name, Dims: dims}}
	return texpr.MustSubgraph(name, 1, mat, ep)
}

// Conv2DReLU builds a conv2d followed by a fused bias+ReLU elementwise stage —
// the canonical CNN subgraph after operator fusion.
//
//lint:allow deadexport the root bench_test.go, hardware/hardware_test.go, schedule/schedule_test.go, search/search_test.go and sketch/sketch_test.go build subgraphs with it
func Conv2DReLU(name string, weight, batch, h, w, cin, cout, k, stride, pad int) *texpr.Subgraph {
	conv := conv2DStage("conv2d", batch, h, w, cin, cout, k, stride, pad)
	relu := &texpr.Stage{
		Name:          "bias_relu",
		Kind:          texpr.Elementwise,
		FLOPsPerPoint: 2,
		CanInline:     true,
		Spatial:       append([]texpr.Iter(nil), conv.Spatial...),
	}
	dims := make([]texpr.AxisRef, len(relu.Spatial))
	for i := range dims {
		dims[i] = texpr.AxisRef{Iter: i}
	}
	relu.Inputs = []texpr.Access{{Tensor: "acc", Producer: conv.Name, Dims: dims}}
	return texpr.MustSubgraph(name, weight, conv, relu)
}

// pool2D builds a pooling subgraph (ReduceLight over a window).
func pool2D(name string, batch, h, w, c, k, stride int) *texpr.Subgraph {
	oh, ow := convOut(h, k, stride, 0), convOut(w, k, stride, 0)
	st := &texpr.Stage{
		Name:          "pool2d",
		Kind:          texpr.ReduceLight,
		FLOPsPerPoint: 1,
		Spatial: []texpr.Iter{
			{Name: "n", Extent: batch, Kind: texpr.Spatial},
			{Name: "oh", Extent: oh, Kind: texpr.Spatial},
			{Name: "ow", Extent: ow, Kind: texpr.Spatial},
			{Name: "c", Extent: c, Kind: texpr.Spatial},
		},
		Reduce: []texpr.Iter{
			{Name: "kh", Extent: k, Kind: texpr.Reduction},
			{Name: "kw", Extent: k, Kind: texpr.Reduction},
		},
		Inputs: []texpr.Access{
			{Tensor: "data", Dims: []texpr.AxisRef{
				{Iter: 0},
				{Iter: 1, Scale: stride, Offset: k - stride},
				{Iter: 2, Scale: stride, Offset: k - stride},
				{Iter: 3},
			}},
		},
	}
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
