package texpr

import (
	"strings"
	"testing"
)

func gemmStage(m, k, n int) *Stage {
	return &Stage{
		Name:          "matmul",
		Kind:          ComputeHeavy,
		FLOPsPerPoint: 2,
		HasDataReuse:  true,
		Spatial: []Iter{
			{Name: "i", Extent: m, Kind: Spatial},
			{Name: "j", Extent: n, Kind: Spatial},
		},
		Reduce: []Iter{{Name: "k", Extent: k, Kind: Reduction}},
		Inputs: []Access{
			{Tensor: "A", Dims: []AxisRef{{Iter: 0}, {Iter: 0, Reduce: true}}},
			{Tensor: "B", Dims: []AxisRef{{Iter: 0, Reduce: true}, {Iter: 1}}},
		},
	}
}

func TestStageFLOPs(t *testing.T) {
	st := gemmStage(128, 64, 32)
	if got, want := st.FLOPs(), float64(2*128*64*32); got != want {
		t.Fatalf("FLOPs = %g want %g", got, want)
	}
	if st.OutputElems() != 128*32 {
		t.Fatalf("output elems %d", st.OutputElems())
	}
	if st.ReduceElems() != 64 {
		t.Fatalf("reduce elems %d", st.ReduceElems())
	}
}

func TestStageBytes(t *testing.T) {
	st := gemmStage(128, 64, 32)
	if got := st.OutputBytes(); got != 128*32*4 {
		t.Fatalf("output bytes %d", got)
	}
	if got := st.InputBytes(); got != (128*64+64*32)*4 {
		t.Fatalf("input bytes %d", got)
	}
}

func TestAccessTileBytes(t *testing.T) {
	st := gemmStage(128, 64, 32)
	// Tile i=8, j=4, k=16: A tile = 8×16, B tile = 16×4.
	sp, red := []int{8, 4}, []int{16}
	if got := st.AccessTileBytes(st.Inputs[0], sp, red); got != 8*16*4 {
		t.Fatalf("A tile bytes %d", got)
	}
	if got := st.AccessTileBytes(st.Inputs[1], sp, red); got != 16*4*4 {
		t.Fatalf("B tile bytes %d", got)
	}
}

func TestAccessTileBytesWindow(t *testing.T) {
	// Conv-style windowed access: extent = scale·tile + offset, clamped to
	// the full extent.
	st := &Stage{
		Name: "conv", Kind: ComputeHeavy, FLOPsPerPoint: 2,
		Spatial: []Iter{{Name: "x", Extent: 16, Kind: Spatial}},
		Reduce:  []Iter{{Name: "k", Extent: 3, Kind: Reduction}},
		Inputs: []Access{{
			Tensor: "data",
			Dims:   []AxisRef{{Iter: 0, Scale: 2, Offset: 1}},
		}},
	}
	if got := st.AccessTileBytes(st.Inputs[0], []int{4}, []int{3}); got != (2*4+1)*4 {
		t.Fatalf("window tile bytes %d", got)
	}
	// Tile of the full extent must clamp to the full footprint.
	if got := st.AccessTileBytes(st.Inputs[0], []int{16}, []int{3}); got != (2*16+1)*4 {
		t.Fatalf("full window bytes %d", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		st   *Stage
	}{
		{"no spatial", &Stage{Name: "x"}},
		{"bad extent", &Stage{Name: "x", Spatial: []Iter{{Name: "i", Extent: 0, Kind: Spatial}}}},
		{"wrong kind", &Stage{Name: "x", Spatial: []Iter{{Name: "i", Extent: 4, Kind: Reduction}}}},
		{"bad access", &Stage{
			Name:    "x",
			Spatial: []Iter{{Name: "i", Extent: 4, Kind: Spatial}},
			Inputs:  []Access{{Tensor: "A", Dims: []AxisRef{{Iter: 3}}}},
		}},
	}
	for _, c := range cases {
		if err := c.st.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestSubgraphDAG(t *testing.T) {
	mat := gemmStage(64, 64, 64)
	relu := &Stage{
		Name: "relu", Kind: Elementwise, FLOPsPerPoint: 1, CanInline: true,
		Spatial: []Iter{
			{Name: "i", Extent: 64, Kind: Spatial},
			{Name: "j", Extent: 64, Kind: Spatial},
		},
		Inputs: []Access{{Tensor: "acc", Producer: "matmul", Dims: []AxisRef{{Iter: 0}, {Iter: 1}}}},
	}
	g, err := NewSubgraph("gemm_relu", 2, mat, relu)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Consumers(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("consumers of matmul: %v", got)
	}
	if got := g.Producers(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("producers of relu: %v", got)
	}
	if g.MainStage() != 0 {
		t.Fatalf("main stage %d", g.MainStage())
	}
	if g.Weight != 2 {
		t.Fatalf("weight %d", g.Weight)
	}
	if !strings.Contains(g.String(), "gemm_relu") {
		t.Fatal("String() missing name")
	}
}

func TestSubgraphRejectsUnknownProducer(t *testing.T) {
	st := gemmStage(8, 8, 8)
	st.Inputs = append(st.Inputs, Access{Tensor: "x", Producer: "ghost", Dims: []AxisRef{{Iter: 0}}})
	if _, err := NewSubgraph("bad", 1, st); err == nil {
		t.Fatal("expected unknown-producer error")
	}
}

func TestSubgraphRejectsForwardReference(t *testing.T) {
	a := gemmStage(8, 8, 8)
	a.Inputs = append(a.Inputs, Access{Tensor: "later", Producer: "b", Dims: []AxisRef{{Iter: 0}}})
	b := &Stage{
		Name: "b", Kind: Elementwise, FLOPsPerPoint: 1,
		Spatial: []Iter{{Name: "i", Extent: 8, Kind: Spatial}},
	}
	if _, err := NewSubgraph("bad", 1, a, b); err == nil {
		t.Fatal("expected topological-order error")
	}
}

func TestSubgraphRejectsDuplicateStage(t *testing.T) {
	if _, err := NewSubgraph("dup", 1, gemmStage(4, 4, 4), gemmStage(4, 4, 4)); err == nil {
		t.Fatal("expected duplicate-stage error")
	}
}

func TestSubgraphFLOPsSum(t *testing.T) {
	mat := gemmStage(16, 16, 16)
	g := MustSubgraph("g", 1, mat)
	if g.FLOPs() != mat.FLOPs() {
		t.Fatal("subgraph FLOPs should sum stages")
	}
}

func TestElemBytesDefault(t *testing.T) {
	st := gemmStage(4, 4, 4)
	st.OutElemBytes = 2 // fp16 output
	if st.OutputBytes() != 4*4*2 {
		t.Fatalf("fp16 output bytes %d", st.OutputBytes())
	}
}

func TestFingerprintStableAndStructural(t *testing.T) {
	g1 := MustSubgraph("g", 1, gemmStage(16, 16, 16))
	g2 := MustSubgraph("g", 1, gemmStage(16, 16, 16))
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatal("identical structures must share a fingerprint")
	}
	if !strings.HasPrefix(g1.Fingerprint(), "g@") {
		t.Fatalf("fingerprint %q must embed the name", g1.Fingerprint())
	}
	// Weight scales the network objective, not the schedule space: records
	// must transfer between weight variants.
	g3 := MustSubgraph("g", 7, gemmStage(16, 16, 16))
	if g3.Fingerprint() != g1.Fingerprint() {
		t.Fatal("weight must not change the fingerprint")
	}
	// Any structural difference must change it.
	g4 := MustSubgraph("g", 1, gemmStage(16, 32, 16))
	if g4.Fingerprint() == g1.Fingerprint() {
		t.Fatal("extent change must change the fingerprint")
	}
	st := gemmStage(16, 16, 16)
	st.HasReductionParallel = true
	g5 := MustSubgraph("g", 1, st)
	if g5.Fingerprint() == g1.Fingerprint() {
		t.Fatal("capability-flag change must change the fingerprint")
	}
}
