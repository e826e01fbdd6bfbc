package workload

import (
	"fmt"

	"harl/internal/texpr"
)

// Network is an end-to-end tuning target: a set of distinct subgraphs, each
// carrying its appearance count (w_n in the paper's problem formulation).
// The estimated end-to-end latency is Σ w_n · g_n where g_n is the tuned
// execution time of subgraph n.
type Network struct {
	Name      string
	Batch     int
	Subgraphs []*texpr.Subgraph
}

// DistinctSubgraphs returns the number of distinct subgraphs (the paper
// reports 10 for BERT and 24 for ResNet-50).
func (n *Network) DistinctSubgraphs() int { return len(n.Subgraphs) }

// NetworkByName resolves one of the paper's networks by name: "bert",
// "resnet50" or "mobilenetv2", each also spelled the way the paper's figures
// label it ("BERT", "ResNet", "MobileNet"), and "resnet" or "mobilenet".
func NetworkByName(name string, batch int) (*Network, error) {
	switch name {
	case "bert", "BERT":
		return BERT(batch), nil
	case "resnet50", "resnet", "ResNet":
		return resNet50(batch), nil
	case "mobilenetv2", "mobilenet", "MobileNet":
		return mobileNetV2(batch), nil
	}
	return nil, fmt.Errorf("workload: unknown network %q", name)
}

func withWeight(sg *texpr.Subgraph, w int) *texpr.Subgraph {
	sg.Weight = w
	return sg
}

// BERT builds the BERT-base inventory used in Section 6.3 and Table 4:
// 10 distinct subgraphs (4 projection/FF GEMMs, softmax, 2 batched GEMMs,
// 2 elementwise groups, and the pooler GEMM+Tanh). Sequence length 128,
// hidden 768, 12 heads, 12 layers, FF dim 3072.
func BERT(batch int) *Network {
	const (
		layers = 12
		seq    = 128
		hidden = 768
		heads  = 12
		ff     = 3072
	)
	headDim := hidden / heads
	rows := batch * seq
	return &Network{
		Name:  fmt.Sprintf("BERT-b%d", batch),
		Batch: batch,
		Subgraphs: []*texpr.Subgraph{
			// Q/K/V projections: 3 per layer.
			withWeight(GEMM("GEMM-I", 1, rows, hidden, hidden), 3*layers),
			// Attention output projection: 1 per layer.
			withWeight(GEMM("GEMM-II", 1, rows, hidden, hidden), layers),
			// Feed-forward up-projection.
			withWeight(GEMMEpilogue("GEMM-III", 1, rows, hidden, ff, 8), layers),
			// Feed-forward down-projection.
			withWeight(GEMM("GEMM-IV", 1, rows, ff, hidden), layers),
			// Attention softmax over (batch·heads·seq) rows of length seq.
			withWeight(Softmax("Softmax", batch*heads*seq, seq), layers),
			// Scores = Q·K^T per head.
			withWeight(batchGEMM("Batch_GEMM-I", batch*heads, seq, headDim, seq), layers),
			// Context = scores·V per head.
			withWeight(batchGEMM("Batch_GEMM-II", batch*heads, seq, seq, headDim), layers),
			// Residual add + layernorm core (2 per layer).
			withWeight(Elementwise("Element-wise-I", rows*hidden, 8, 2), 2*layers),
			// GELU over the FF activation.
			withWeight(Elementwise("Element-wise-II", rows*ff, 8, 1), layers),
			// Pooler: dense(768,768)+tanh on the [CLS] token.
			withWeight(GEMMEpilogue("GEMM+Tanh", 1, batch, hidden, hidden, 6), 1),
		},
	}
}

// resnetConv is a helper describing one distinct conv shape of ResNet-50.
type resnetConv struct {
	name            string
	weight          int
	h, cin, cout, k int
	stride, pad     int
}

// resNet50 builds the ResNet-50 inventory: 24 distinct subgraphs (21 conv
// shapes + pooling stages + the classifier GEMM), matching the count the
// paper reports for the model.
func resNet50(batch int) *Network {
	convs := []resnetConv{
		{"conv1_7x7", 1, 224, 3, 64, 7, 2, 3},
		{"c2_1x1_red", 3, 56, 64, 64, 1, 1, 0},
		{"c2_3x3", 3, 56, 64, 64, 3, 1, 1},
		{"c2_1x1_exp", 3, 56, 64, 256, 1, 1, 0},
		{"c2_down", 1, 56, 64, 256, 1, 1, 0},
		{"c3_1x1_red_s2", 1, 56, 256, 128, 1, 2, 0},
		{"c3_1x1_red", 3, 28, 512, 128, 1, 1, 0},
		{"c3_3x3", 4, 28, 128, 128, 3, 1, 1},
		{"c3_1x1_exp", 4, 28, 128, 512, 1, 1, 0},
		{"c3_down", 1, 56, 256, 512, 1, 2, 0},
		{"c4_1x1_red_s2", 1, 28, 512, 256, 1, 2, 0},
		{"c4_1x1_red", 5, 14, 1024, 256, 1, 1, 0},
		{"c4_3x3", 6, 14, 256, 256, 3, 1, 1},
		{"c4_1x1_exp", 6, 14, 256, 1024, 1, 1, 0},
		{"c4_down", 1, 28, 512, 1024, 1, 2, 0},
		{"c5_1x1_red_s2", 1, 14, 1024, 512, 1, 2, 0},
		{"c5_1x1_red", 2, 7, 2048, 512, 1, 1, 0},
		{"c5_3x3", 3, 7, 512, 512, 3, 1, 1},
		{"c5_1x1_exp", 3, 7, 512, 2048, 1, 1, 0},
		{"c5_down", 1, 14, 1024, 2048, 1, 2, 0},
	}
	var sgs []*texpr.Subgraph
	for _, c := range convs {
		sgs = append(sgs, Conv2DReLU(c.name, c.weight, batch, c.h, c.h, c.cin, c.cout, c.k, c.stride, c.pad))
	}
	sgs = append(sgs,
		withWeight(pool2D("maxpool", batch, 112, 112, 64, 3, 2), 1),
		withWeight(pool2D("global_avgpool", batch, 7, 7, 2048, 7, 7), 1),
		withWeight(Elementwise("residual_add", batch*56*56*256, 2, 2), 16),
		withWeight(GEMM("fc1000", 1, batch, 2048, 1000), 1),
	)
	return &Network{Name: fmt.Sprintf("ResNet50-b%d", batch), Batch: batch, Subgraphs: sgs}
}

// mbConv describes one distinct inverted-residual component of MobileNet-V2.
type mbConv struct {
	name   string
	weight int
	// kind: "conv" (pointwise/regular) or "dw" (depthwise)
	kind            string
	h, cin, cout, k int
	stride, pad     int
}

// mobileNetV2 builds the MobileNet-V2 inventory: 21 distinct subgraphs drawn
// from the expand/depthwise/project structure of the inverted-residual blocks.
func mobileNetV2(batch int) *Network {
	blocks := []mbConv{
		{"conv1_3x3", 1, "conv", 224, 3, 32, 3, 2, 1},
		{"b1_dw", 1, "dw", 112, 32, 32, 3, 1, 1},
		{"b1_proj", 1, "conv", 112, 32, 16, 1, 1, 0},
		{"b2_expand", 1, "conv", 112, 16, 96, 1, 1, 0},
		{"b2_dw_s2", 1, "dw", 112, 96, 96, 3, 2, 1},
		{"b2_proj", 2, "conv", 56, 96, 24, 1, 1, 0},
		{"b2_expand2", 1, "conv", 56, 24, 144, 1, 1, 0},
		{"b2_dw", 1, "dw", 56, 144, 144, 3, 1, 1},
		{"b3_dw_s2", 1, "dw", 56, 144, 144, 3, 2, 1},
		{"b3_proj", 3, "conv", 28, 144, 32, 1, 1, 0},
		{"b3_expand", 2, "conv", 28, 32, 192, 1, 1, 0},
		{"b3_dw", 2, "dw", 28, 192, 192, 3, 1, 1},
		{"b4_dw_s2", 1, "dw", 28, 192, 192, 3, 2, 1},
		{"b4_proj", 4, "conv", 14, 192, 64, 1, 1, 0},
		{"b4_expand", 4, "conv", 14, 64, 384, 1, 1, 0},
		{"b4_dw", 3, "dw", 14, 384, 384, 3, 1, 1},
		{"b5_mid", 6, "conv", 14, 384, 96, 1, 1, 0},
		{"b6_dw_s2", 1, "dw", 14, 576, 576, 3, 2, 1},
		{"b7_tail", 4, "conv", 7, 576, 160, 1, 1, 0},
		{"conv_last", 1, "conv", 7, 320, 1280, 1, 1, 0},
	}
	var sgs []*texpr.Subgraph
	for _, b := range blocks {
		var sg *texpr.Subgraph
		if b.kind == "dw" {
			sg = DepthwiseConv2D(b.name, batch, b.h, b.h, b.cin, b.k, b.stride, b.pad)
			sg.Weight = b.weight
		} else {
			sg = Conv2DReLU(b.name, b.weight, batch, b.h, b.h, b.cin, b.cout, b.k, b.stride, b.pad)
		}
		sgs = append(sgs, sg)
	}
	sgs = append(sgs, withWeight(GEMM("fc1000", 1, batch, 1280, 1000), 1))
	return &Network{Name: fmt.Sprintf("MobileNetV2-b%d", batch), Batch: batch, Subgraphs: sgs}
}

// NetworkTrialBudget returns the measurement-trial budget the paper assigns
// to each network (Section 6.3): 12,000 for BERT, 22,000 for ResNet-50 and
// 16,000 for MobileNet-V2.
func NetworkTrialBudget(name string) int {
	switch {
	case len(name) >= 4 && name[:4] == "BERT":
		return 12000
	case len(name) >= 6 && name[:6] == "ResNet":
		return 22000
	case len(name) >= 9 && name[:9] == "MobileNet":
		return 16000
	}
	return 10000
}
