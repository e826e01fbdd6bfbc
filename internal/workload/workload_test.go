package workload

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"harl/internal/texpr"
)

func TestGEMMShape(t *testing.T) {
	g := GEMM("g", 1, 128, 64, 32)
	if len(g.Stages) != 1 {
		t.Fatalf("stages %d", len(g.Stages))
	}
	st := g.Stages[0]
	if got, want := st.FLOPs(), float64(2*128*64*32); got != want {
		t.Fatalf("flops %g want %g", got, want)
	}
	if !st.HasDataReuse || !st.HasReductionParallel {
		t.Fatal("GEMM capability flags wrong")
	}
}

func TestGEMMBatchAddsAxis(t *testing.T) {
	g1 := GEMM("g1", 1, 64, 64, 64)
	g16 := GEMM("g16", 16, 64, 64, 64)
	if len(g16.Stages[0].Spatial) != len(g1.Stages[0].Spatial)+1 {
		t.Fatal("batch axis missing")
	}
	if g16.FLOPs() != 16*g1.FLOPs() {
		t.Fatal("batch FLOPs should scale linearly")
	}
}

func TestConvOutputSizes(t *testing.T) {
	// (224+2*3-7)/2+1 = 112
	c := Conv2D("c", 1, 224, 224, 3, 64, 7, 2, 3)
	st := c.Stages[0]
	if st.Spatial[1].Extent != 112 || st.Spatial[2].Extent != 112 {
		t.Fatalf("conv output %dx%d", st.Spatial[1].Extent, st.Spatial[2].Extent)
	}
	if st.Spatial[3].Extent != 64 {
		t.Fatalf("cout %d", st.Spatial[3].Extent)
	}
	if len(st.Reduce) != 3 {
		t.Fatalf("conv2d reduce axes %d", len(st.Reduce))
	}
}

func TestConvT2DUpsamples(t *testing.T) {
	// (4-1)*2 - 2 + 4 = 8
	g := ConvT2D("t", 1, 4, 4, 512, 256, 4, 2, 1)
	st := g.Stages[0]
	if st.Spatial[1].Extent != 8 {
		t.Fatalf("t2d output %d want 8", st.Spatial[1].Extent)
	}
}

func TestDepthwiseNoChannelReduce(t *testing.T) {
	g := DepthwiseConv2D("dw", 1, 56, 56, 64, 3, 1, 1)
	st := g.Stages[0]
	if len(st.Reduce) != 2 {
		t.Fatalf("depthwise reduce axes %d want 2 (kernel only)", len(st.Reduce))
	}
}

func TestSoftmaxTwoStages(t *testing.T) {
	g := Softmax("s", 128, 128)
	if len(g.Stages) != 2 {
		t.Fatalf("softmax stages %d", len(g.Stages))
	}
	if g.Stages[0].Kind != texpr.ReduceLight || g.Stages[1].Kind != texpr.Elementwise {
		t.Fatal("softmax stage kinds wrong")
	}
	if got := g.Consumers(0); len(got) != 1 {
		t.Fatal("norm stage must consume reduce stage")
	}
}

func TestGEMMEpilogueFusion(t *testing.T) {
	g := GEMMEpilogue("ge", 1, 64, 64, 64, 4)
	if len(g.Stages) != 2 {
		t.Fatalf("stages %d", len(g.Stages))
	}
	if !g.Stages[1].CanInline {
		t.Fatal("epilogue must be inlinable")
	}
	if g.MainStage() != 0 {
		t.Fatal("matmul must dominate FLOPs")
	}
}

func TestTable6Complete(t *testing.T) {
	cfgs := table6()
	if len(cfgs) != 28 {
		t.Fatalf("Table 6 has %d configs, want 7 categories × 4", len(cfgs))
	}
	perCat := map[string]int{}
	for _, c := range cfgs {
		perCat[c.Category]++
		for _, batch := range []int{1, 16} {
			sg := c.Build(batch)
			if sg.FLOPs() <= 0 {
				t.Fatalf("%s %v: non-positive FLOPs", c.Category, c.Params)
			}
			for _, st := range sg.Stages {
				if err := st.Validate(); err != nil {
					t.Fatalf("%s %v: %v", c.Category, c.Params, err)
				}
			}
		}
	}
	for _, cat := range OperatorCategories() {
		if perCat[cat] != 4 {
			t.Fatalf("category %s has %d configs", cat, perCat[cat])
		}
	}
}

func TestSuiteFor(t *testing.T) {
	if got := len(SuiteFor("GEMM-L", 1)); got != 4 {
		t.Fatalf("GEMM-L suite %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown category should panic")
		}
	}()
	SuiteFor("NOPE", 1)
}

func TestBERTInventory(t *testing.T) {
	net := BERT(1)
	if got := net.DistinctSubgraphs(); got != 10 {
		t.Fatalf("BERT distinct subgraphs %d, paper says 10", got)
	}
	// The four projection/FF GEMMs must dominate total FLOPs (the paper's
	// Table 4 attributes 87%+ to the top five subgraphs).
	var gemmFLOPs, total float64
	for _, sg := range net.Subgraphs {
		w := float64(sg.Weight) * sg.FLOPs()
		total += w
		switch sg.Name {
		case "GEMM-I", "GEMM-II", "GEMM-III", "GEMM-IV":
			gemmFLOPs += w
		}
	}
	if gemmFLOPs/total < 0.8 {
		t.Fatalf("GEMM share %.2f, want > 0.8", gemmFLOPs/total)
	}
	// Q/K/V projection appears 3× per layer.
	if net.Subgraphs[0].Weight != 36 {
		t.Fatalf("GEMM-I weight %d want 36", net.Subgraphs[0].Weight)
	}
}

func TestResNet50Inventory(t *testing.T) {
	net := resNet50(1)
	if got := net.DistinctSubgraphs(); got != 24 {
		t.Fatalf("ResNet-50 distinct subgraphs %d, paper says 24", got)
	}
	for _, sg := range net.Subgraphs {
		if sg.Weight < 1 {
			t.Fatalf("%s weight %d", sg.Name, sg.Weight)
		}
	}
}

func TestMobileNetV2Inventory(t *testing.T) {
	net := mobileNetV2(1)
	if got := net.DistinctSubgraphs(); got != 21 {
		t.Fatalf("MobileNet-V2 distinct subgraphs %d want 21", got)
	}
}

func TestNetworksBatchScaling(t *testing.T) {
	for _, mk := range []func(int) *Network{BERT, resNet50, mobileNetV2} {
		n1, n16 := mk(1), mk(16)
		var f1, f16 float64
		for i := range n1.Subgraphs {
			f1 += float64(n1.Subgraphs[i].Weight) * n1.Subgraphs[i].FLOPs()
			f16 += float64(n16.Subgraphs[i].Weight) * n16.Subgraphs[i].FLOPs()
		}
		if f16 < 10*f1 {
			t.Fatalf("%s: batch-16 work only %.1fx batch-1", n1.Name, f16/f1)
		}
	}
}

func TestNetworkByNameSpellings(t *testing.T) {
	for name, want := range map[string]string{
		"bert": "BERT-b2", "BERT": "BERT-b2",
		"resnet50": "ResNet50-b2", "resnet": "ResNet50-b2", "ResNet": "ResNet50-b2",
		"mobilenetv2": "MobileNetV2-b2", "mobilenet": "MobileNetV2-b2", "MobileNet": "MobileNetV2-b2",
	} {
		net, err := NetworkByName(name, 2)
		if err != nil || net.Name != want {
			t.Fatalf("NetworkByName(%q) = %v, %v; want %s", name, net, err, want)
		}
	}
	if _, err := NetworkByName("vgg", 1); err == nil || !strings.Contains(err.Error(), `"vgg"`) {
		t.Fatalf("unknown network must error naming it, got %v", err)
	}
}

func TestNetworkTrialBudget(t *testing.T) {
	if NetworkTrialBudget("BERT-b1") != 12000 ||
		NetworkTrialBudget("ResNet50-b1") != 22000 ||
		NetworkTrialBudget("MobileNetV2-b16") != 16000 {
		t.Fatal("paper budgets wrong")
	}
	if NetworkTrialBudget("other") != 10000 {
		t.Fatal("default budget wrong")
	}
}

// TestCatalogueDigest pins every subgraph the catalogue builds: its
// fingerprint (the registry and journal key), its String form, its weight and
// every field of every stage. A refactor of the constructors must leave this
// digest alone, or every committed journal and registry key moves with it.
func TestCatalogueDigest(t *testing.T) {
	var sgs []*texpr.Subgraph
	for _, batch := range []int{1, 16} {
		for _, c := range table6() {
			sgs = append(sgs, c.Build(batch))
		}
		for _, mk := range []func(int) *Network{BERT, resNet50, mobileNetV2} {
			sgs = append(sgs, mk(batch).Subgraphs...)
		}
	}
	sgs = append(sgs,
		DepthwiseConv2D("dw", 2, 28, 30, 96, 5, 2, 2),
		Conv2DReLU("c2r", 3, 2, 56, 54, 64, 128, 3, 2, 1),
		ConvT2D("t2d", 2, 9, 7, 64, 32, 3, 2, 1),
		Conv1D("c1d", 2, 100, 32, 48, 5, 3, 2),
		Conv3D("c3d", 2, 8, 20, 18, 16, 24, 3, 2, 1),
		GEMMEpilogue("ge", 4, 96, 80, 112, 3),
		Softmax("sm", 384, 96),
		Elementwise("ew", 4096, 5, 3),
		pool2D("pool", 2, 31, 29, 40, 3, 2),
	)
	h := sha256.New()
	for _, sg := range sgs {
		fmt.Fprintf(h, "%s\n%s%d\n", sg.Fingerprint(), sg.String(), sg.Weight)
		for _, st := range sg.Stages {
			fmt.Fprintf(h, "%+v\n", st)
		}
	}
	const want = "6dd089e6a59c78faa7ce87c254195433d08da67e8fb48eb2e8e214597e15081d"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("catalogue digest over %d subgraphs = %s, want %s", len(sgs), got, want)
	}
}
