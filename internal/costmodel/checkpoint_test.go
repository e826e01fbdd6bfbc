package costmodel

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"harl/internal/xrand"
)

// trainedModel fits a model on synthetic data for the checkpoint tests.
func trainedModel(t *testing.T, seed uint64, n int) *Model {
	t.Helper()
	rng := xrand.New(seed)
	m := New(DefaultParams())
	xs, ys := synth(rng, n, 6)
	for i := range xs {
		m.Add(xs[i], ys[i])
	}
	m.Refit()
	if !m.Trained() {
		t.Fatal("model should be trained")
	}
	return m
}

func TestCheckpointRoundTripByteIdentical(t *testing.T) {
	m := trainedModel(t, 1, 400)
	first, err := m.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalCheckpoint(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := loaded.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("save → load → re-save is not byte-identical")
	}
}

func TestCheckpointPredictsIdentically(t *testing.T) {
	m := trainedModel(t, 2, 400)
	data, err := m.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != m.Len() {
		t.Fatalf("training set %d after load, want %d", loaded.Len(), m.Len())
	}
	// Holdout grid: predictions and throughputs must be bit-identical.
	hx, _ := synth(xrand.New(99), 250, 6)
	want := m.PredictBatch(hx)
	got := loaded.PredictBatch(hx)
	for i := range hx {
		if got[i] != want[i] {
			t.Fatalf("holdout %d: loaded predicts %v, original %v", i, got[i], want[i])
		}
		if loaded.Throughput(hx[i]) != m.Throughput(hx[i]) {
			t.Fatalf("holdout %d: throughput diverged", i)
		}
	}
	// The loaded model keeps learning: a refit from the carried training set
	// reproduces the original ensemble exactly.
	loaded.Refit()
	refitted := loaded.PredictBatch(hx)
	for i := range hx {
		if refitted[i] != want[i] {
			t.Fatalf("holdout %d: refit after load diverged (%v vs %v)", i, refitted[i], want[i])
		}
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	m := trainedModel(t, 3, 300)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 6)
	for i := range x {
		x[i] = 0.5
	}
	if loaded.Predict(x) != m.Predict(x) {
		t.Fatal("file round trip changed predictions")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing checkpoint must error")
	}
}

func TestCheckpointUntrainedModel(t *testing.T) {
	m := New(DefaultParams())
	data, err := m.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Trained() || loaded.Len() != 0 {
		t.Fatal("empty model must load empty")
	}
	resave, err := loaded.MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, resave) {
		t.Fatal("empty checkpoint not byte-stable")
	}
}

func TestCheckpointRejectsBadInput(t *testing.T) {
	if _, err := UnmarshalCheckpoint([]byte("not json")); err == nil {
		t.Fatal("garbage must error")
	}
	if _, err := UnmarshalCheckpoint([]byte(`{"v":99}`)); err == nil {
		t.Fatal("version mismatch must error")
	}
	if _, err := UnmarshalCheckpoint([]byte(`{"v":1,"xs":[[1]],"ys":[]}`)); err == nil {
		t.Fatal("xs/ys length mismatch must error")
	}
	// An internal node pointing at itself would loop forever if accepted.
	bad := `{"v":1,"xs":[[1]],"ys":[2],"trees":[{"nodes":[{"f":0,"t":0.5,"l":0,"r":0,"leaf":0,"end":false}]}]}`
	if _, err := UnmarshalCheckpoint([]byte(bad)); err == nil {
		t.Fatal("cyclic tree must error")
	}
	// A split on a feature beyond the model's dimension would index out of
	// range in Predict.
	badFeat := `{"v":1,"xs":[[1,2]],"ys":[3],"trees":[{"nodes":[` +
		`{"f":5,"t":0.5,"l":1,"r":2,"leaf":0,"end":false},` +
		`{"f":0,"t":0,"l":0,"r":0,"leaf":1,"end":true},` +
		`{"f":0,"t":0,"l":0,"r":0,"leaf":2,"end":true}]}]}`
	if _, err := UnmarshalCheckpoint([]byte(badFeat)); err == nil {
		t.Fatal("out-of-range split feature must error")
	}
	// Trees without any dimensioned part to bound their feature indices —
	// even a leaf-only one, whose padded walk would still read x[0].
	noDim := `{"v":1,"trees":[{"nodes":[` +
		`{"f":0,"t":0.5,"l":1,"r":2,"leaf":0,"end":false},` +
		`{"f":0,"t":0,"l":0,"r":0,"leaf":1,"end":true},` +
		`{"f":0,"t":0,"l":0,"r":0,"leaf":2,"end":true}]}]}`
	if _, err := UnmarshalCheckpoint([]byte(noDim)); err == nil {
		t.Fatal("splitting trees without a feature dimension must error")
	}
	if _, err := UnmarshalCheckpoint([]byte(`{"v":1,"trees":[{"nodes":[{"leaf":1,"end":true}]}]}`)); err == nil {
		t.Fatal("a leaf-only tree without a feature dimension must error")
	}
	// The padded kernel costs 2^(depth+1) slots a tree: the depth limit and
	// every tree's fit under it are checked before anything is laid out.
	if _, err := UnmarshalCheckpoint(chainCheckpoint(8, 8, false)); err != nil {
		t.Fatalf("a depth-8 tree under max depth 8 must load: %v", err)
	}
	if _, err := UnmarshalCheckpoint(chainCheckpoint(9, 8, false)); err == nil {
		t.Fatal("a depth-9 tree must error")
	}
	if _, err := UnmarshalCheckpoint(chainCheckpoint(7, 6, false)); err == nil {
		t.Fatal("a tree deeper than the artifact's own max depth must error")
	}
	if _, err := UnmarshalCheckpoint(chainCheckpoint(3, 12, false)); err == nil {
		t.Fatal("max depth 12 must error")
	}
	if _, err := UnmarshalCheckpoint(chainCheckpoint(3, -1, false)); err == nil {
		t.Fatal("negative max depth must error")
	}
	// Ragged training rows would panic the fitters at the next Refit.
	if _, err := UnmarshalCheckpoint([]byte(`{"v":1,"xs":[[1,2],[3]],"ys":[1,2]}`)); err == nil {
		t.Fatal("ragged feature rows must error")
	}
	if _, err := UnmarshalCheckpoint([]byte(`{"v":1,"lin":[1,2],"lin_mu":[1]}`)); err == nil {
		t.Fatal("lin/lin_mu length mismatch must error")
	}
	// The first Refit after a load costs NumTrees × rows, all the artifact's
	// to choose: the tree count is bounded, and the artifact may not carry
	// more trees or rows than its own parameters allow.
	if _, err := UnmarshalCheckpoint(sizedCheckpoint(maxTrees, maxTrees, 8, 8)); err != nil {
		t.Fatalf("an artifact at its own limits must load: %v", err)
	}
	if _, err := UnmarshalCheckpoint(sizedCheckpoint(0, 0, 8, 0)); err != nil {
		t.Fatalf("no trees and no row cap must load: %v", err)
	}
	// The ridge term of that Refit is dim³: the dimension is bounded too,
	// whether the rows or the ridge weights spell it out.
	if _, err := UnmarshalCheckpoint(wideCheckpoint(maxDim, true)); err != nil {
		t.Fatalf("%d features must load: %v", maxDim, err)
	}
	for name, data := range map[string][]byte{
		"rows wider than the feature limit":  wideCheckpoint(maxDim+1, true),
		"ridge wider than the feature limit": wideCheckpoint(maxDim+1, false),
		"a billion boosting rounds":          sizedCheckpoint(1_000_000_000, 0, 8, 4096),
		"negative boosting rounds":           sizedCheckpoint(-1, 0, 8, 4096),
		"more trees than boosting rounds":    sizedCheckpoint(2, 3, 8, 4096),
		"more rows than the training cap":    sizedCheckpoint(30, 0, 8, 7),
		"trees without any boosting round":   sizedCheckpoint(0, 1, 8, 4096),
	} {
		start := time.Now()
		if _, err := UnmarshalCheckpoint(data); err == nil {
			t.Fatalf("%s must error", name)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("%s: rejected only after %v", name, took)
		}
	}
}

// wideCheckpoint renders an artifact of the given feature dimension, carried
// by two training rows or, without them, by the ridge weights alone.
func wideCheckpoint(dim int, rows bool) []byte {
	ck := checkpoint{V: checkpointVersion, Params: DefaultParams()}
	if rows {
		ck.XS, ck.YS = [][]float64{make([]float64, dim), make([]float64, dim)}, []float64{1, 2}
	} else {
		ck.Lin, ck.LinMu = make([]float64, dim), make([]float64, dim)
	}
	return renderCheckpoint(ck)
}

// renderCheckpoint is the artifact's JSON, whatever the loader will make of it.
func renderCheckpoint(ck checkpoint) []byte {
	data, err := json.Marshal(ck)
	if err != nil {
		panic(err)
	}
	return data
}

// sizedCheckpoint renders an artifact asking for numTrees boosting rounds and
// a cap of maxData rows while carrying `trees` leaf-only trees and `rows`
// one-feature samples.
func sizedCheckpoint(numTrees, trees, rows, maxData int) []byte {
	p := DefaultParams()
	p.NumTrees, p.MaxData = numTrees, maxData
	ck := checkpoint{V: checkpointVersion, Params: p}
	for i := 0; i < rows; i++ {
		ck.XS = append(ck.XS, []float64{float64(i % 5)})
		ck.YS = append(ck.YS, float64(i%3))
	}
	for i := 0; i < trees; i++ {
		ck.Trees = append(ck.Trees, ckptTree{Nodes: []ckptNode{{Leaf: 1, End: true}}})
	}
	return renderCheckpoint(ck)
}

// chainCheckpoint renders an artifact holding one tree that is a chain of
// depth splits on feature 0. A proper chain hangs a leaf to the left of every
// split; a shared one points both children of each split at the next node —
// indices still strictly increase, but the root reaches the bottom along
// 2^depth paths.
func chainCheckpoint(depth, maxDepth int, shared bool) []byte {
	var ct ckptTree
	for d := 0; d < depth; d++ {
		i := len(ct.Nodes)
		if shared {
			ct.Nodes = append(ct.Nodes, ckptNode{Left: i + 1, Right: i + 1})
		} else {
			ct.Nodes = append(ct.Nodes, ckptNode{Left: i + 1, Right: i + 2}, ckptNode{End: true})
		}
	}
	ct.Nodes = append(ct.Nodes, ckptNode{Leaf: 1, End: true})
	p := DefaultParams()
	p.MaxDepth = maxDepth
	return renderCheckpoint(checkpoint{V: checkpointVersion, Params: p,
		XS: [][]float64{{1}}, YS: []float64{2}, Trees: []ckptTree{ct}})
}

// TestCheckpointSharedChildRejectedInLinearTime is the regression for a
// 2 KB artifact that hung -model-in: every check passed on a 34-level chain
// whose splits share their child, and laying the tree out then walked all
// 2^34 root-to-leaf paths. Shape validation is one pass over the nodes.
func TestCheckpointSharedChildRejectedInLinearTime(t *testing.T) {
	data := chainCheckpoint(34, 6, true)
	done := make(chan error, 1)
	go func() {
		_, err := UnmarshalCheckpoint(data)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("a tree whose nodes share a child must error")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("loading a %d-byte checkpoint did not return in 5s", len(data))
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := trainedModel(t, 4, 200)
	c := m.Clone()
	x := make([]float64, 6)
	for i := range x {
		x[i] = 0.25
	}
	want := m.Predict(x)
	if c.Predict(x) != want {
		t.Fatal("clone predicts differently")
	}
	// Training the clone must not disturb the original.
	extra, ys := synth(xrand.New(5), 100, 6)
	for i := range extra {
		c.Add(extra[i], ys[i])
	}
	c.Refit()
	if m.Predict(x) != want {
		t.Fatal("training the clone mutated the original")
	}
	if c.Len() != m.Len()+100 {
		t.Fatalf("clone has %d samples, want %d", c.Len(), m.Len()+100)
	}
}

func TestMergeFoldsSamples(t *testing.T) {
	a := trainedModel(t, 6, 150)
	b := trainedModel(t, 7, 120)
	merged := New(DefaultParams())
	merged.Merge(a)
	merged.Merge(b)
	if merged.Len() != a.Len()+b.Len() {
		t.Fatalf("merged %d samples, want %d", merged.Len(), a.Len()+b.Len())
	}
	merged.Refit()
	if !merged.Trained() {
		t.Fatal("merged model should train")
	}
}
