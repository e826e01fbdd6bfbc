// Checkpoint codec: a versioned JSON serialization of a trained Model —
// boosted trees, ridge term, target range AND the stored training set, so a
// reloaded model both predicts bit-identically and keeps learning (the first
// Refit after new measurements rebuilds from the full history instead of
// forgetting the checkpointed knowledge).
//
// The encoding is canonical: struct field order is fixed and float64 values
// use Go's shortest round-trip formatting, so save → load → re-save produces
// byte-identical artifacts (the property the round-trip tests pin down).
// Loaders reject checkpoints of a different version rather than
// misinterpreting them.
//
// No tuning path reads or writes a checkpoint: a run that should start with a
// trained model replays a journal (search.Task.Pretrain). The codec stays as the
// byte digest the tests pin fitted models with, and the benchmark's probe
// times its decoder.
package costmodel

import (
	"encoding/json"
	"fmt"
)

// checkpointVersion is the artifact format version written by this package.
const checkpointVersion = 1

type ckptNode struct {
	Feat  int     `json:"f"`
	Thr   float64 `json:"t"`
	Left  int     `json:"l"`
	Right int     `json:"r"`
	Leaf  float64 `json:"leaf"`
	End   bool    `json:"end"` // isLeaf
}

type ckptTree struct {
	Nodes []ckptNode `json:"nodes"`
}

type checkpoint struct {
	V      int         `json:"v"`
	Params Params      `json:"params"`
	Base   float64     `json:"base"`
	YMin   float64     `json:"y_min"`
	YMax   float64     `json:"y_max"`
	Lin    []float64   `json:"lin,omitempty"`
	LinMu  []float64   `json:"lin_mu,omitempty"`
	Trees  []ckptTree  `json:"trees,omitempty"`
	XS     [][]float64 `json:"xs,omitempty"`
	YS     []float64   `json:"ys,omitempty"`
}

// MarshalCheckpoint renders the model as one canonical JSON document (with a
// trailing newline).
func (m *Model) MarshalCheckpoint() ([]byte, error) {
	ck := checkpoint{
		V:      checkpointVersion,
		Params: m.P,
		Base:   m.base,
		YMin:   m.yMin,
		YMax:   m.yMax,
		Lin:    m.lin,
		LinMu:  m.linMu,
		XS:     m.xs,
		YS:     m.ys,
	}
	for _, t := range m.trees {
		ct := ckptTree{Nodes: make([]ckptNode, len(t.nodes))}
		for i, n := range t.nodes {
			ct.Nodes[i] = ckptNode{Feat: n.feat, Thr: n.thr, Left: n.left, Right: n.right, Leaf: n.leaf, End: n.isLeaf}
		}
		ck.Trees = append(ck.Trees, ct)
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("costmodel: marshal checkpoint: %w", err)
	}
	return append(data, '\n'), nil
}

// UnmarshalCheckpoint reconstructs a model from its checkpoint bytes. A
// version mismatch is an error: artifacts are never silently reinterpreted.
func UnmarshalCheckpoint(data []byte) (*Model, error) {
	var ck checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("costmodel: malformed checkpoint: %w", err)
	}
	if ck.V != checkpointVersion {
		return nil, fmt.Errorf("costmodel: checkpoint version %d, want %d", ck.V, checkpointVersion)
	}
	if len(ck.XS) != len(ck.YS) {
		return nil, fmt.Errorf("costmodel: checkpoint has %d feature rows but %d targets", len(ck.XS), len(ck.YS))
	}
	if len(ck.Lin) != len(ck.LinMu) {
		return nil, fmt.Errorf("costmodel: checkpoint has %d ridge weights but %d feature means", len(ck.Lin), len(ck.LinMu))
	}
	if d := ck.Params.MaxDepth; d < 0 || d > maxPerfDepth {
		return nil, fmt.Errorf("costmodel: checkpoint max depth %d outside [0, %d]", d, maxPerfDepth)
	}
	// Refit costs NumTrees × samples: an artifact may not ask for more trees
	// than the limit, carry more than it asks for, or more rows than its cap.
	if n := ck.Params.NumTrees; n < 0 || n > maxTrees || len(ck.Trees) > n {
		return nil, fmt.Errorf("costmodel: checkpoint has %d trees for %d boosting rounds (limit %d)", len(ck.Trees), n, maxTrees)
	}
	if c := ck.Params.MaxData; c > 0 && len(ck.XS) > c {
		return nil, fmt.Errorf("costmodel: checkpoint has %d samples, above its cap of %d", len(ck.XS), c)
	}
	// Establish the feature dimension and require every dimensioned part to
	// agree: ragged training rows would panic the fitters on the next Refit,
	// and out-of-range tree/ridge feature indices would panic Predict — a
	// malformed artifact must fail here, at load.
	dim := len(ck.Lin)
	for i, x := range ck.XS {
		if dim == 0 {
			dim = len(x)
		}
		if len(x) != dim {
			return nil, fmt.Errorf("costmodel: checkpoint feature row %d has %d values, want %d", i, len(x), dim)
		}
	}
	if dim > maxDim {
		return nil, fmt.Errorf("costmodel: checkpoint has %d features (limit %d)", dim, maxDim)
	}
	m := &Model{
		P:     ck.Params,
		base:  ck.Base,
		yMin:  ck.YMin,
		yMax:  ck.YMax,
		lin:   ck.Lin,
		linMu: ck.LinMu,
		xs:    ck.XS,
		ys:    ck.YS,
	}
	// The kernel's padding slots read x[0], so trees need a dimension even
	// when none of them splits.
	if len(ck.Trees) > 0 && dim == 0 {
		return nil, fmt.Errorf("costmodel: checkpoint has trees but no feature dimension")
	}
	for _, ct := range ck.Trees {
		if len(ct.Nodes) == 0 {
			return nil, fmt.Errorf("costmodel: checkpoint contains an empty tree")
		}
		t := &tree{nodes: make([]node, len(ct.Nodes))}
		depth := make([]int, len(ct.Nodes))    // of the subtree under each node
		claimed := make([]bool, len(ct.Nodes)) // by a parent
		// grow() always appends children after their parent, so child
		// indices must be strictly increasing — which lets one reverse pass
		// settle every subtree's depth before its parent needs it.
		for i := len(ct.Nodes) - 1; i >= 0; i-- {
			n := ct.Nodes[i]
			t.nodes[i] = node{feat: n.Feat, thr: n.Thr, left: n.Left, right: n.Right, leaf: n.Leaf, isLeaf: n.End}
			if n.End {
				continue
			}
			if n.Feat < 0 || n.Feat >= dim {
				return nil, fmt.Errorf("costmodel: checkpoint tree node %d splits on feature %d of %d", i, n.Feat, dim)
			}
			for _, c := range [2]int{n.Left, n.Right} {
				if c <= i || c >= len(ct.Nodes) {
					return nil, fmt.Errorf("costmodel: checkpoint tree node %d has invalid children", i)
				}
				// A node reachable along two paths makes the walk from the
				// root exponential in the node count.
				if claimed[c] {
					return nil, fmt.Errorf("costmodel: checkpoint tree node %d shares child %d with another parent", i, c)
				}
				claimed[c] = true
			}
			depth[i] = 1 + max(depth[n.Left], depth[n.Right])
		}
		if depth[0] > ck.Params.MaxDepth {
			return nil, fmt.Errorf("costmodel: checkpoint tree of depth %d exceeds max depth %d", depth[0], ck.Params.MaxDepth)
		}
		m.trees = append(m.trees, t)
	}
	m.reflatten()
	return m, nil
}
