// Package texpr is the tensor-expression substrate of the HARL reproduction.
//
// The original system operates on TVM's tensor IR. HARL itself, however, only
// consumes a small set of structural properties of that IR: the iteration
// domain of each stage (spatial and reduction axes), the producer/consumer
// relations between stages of a subgraph, per-tensor access patterns (needed
// to reason about data reuse and cache footprints), and a handful of boolean
// capabilities that drive Ansor's sketch-generation rules (can the stage be
// inlined? does it have data reuse? does it expose reduction parallelism?).
//
// This package models exactly that: a Subgraph is a small DAG of Stages, each
// Stage an iteration domain plus tensor accesses. The sketch generator
// (internal/sketch), the schedule space (internal/schedule) and the hardware
// simulator (internal/hardware) are all defined over these structures.
package texpr

import (
	"fmt"
	"strings"
)

// IterKind distinguishes spatial (parallelizable, output-indexing) iterators
// from reduction iterators.
type IterKind int

const (
	// Spatial iterators index the output tensor and may be tiled, fused and
	// executed in parallel.
	Spatial IterKind = iota
	// Reduction iterators accumulate into the output and are serial unless an
	// rfactor transformation is applied.
	Reduction
)

func (k IterKind) String() string {
	if k == Spatial {
		return "spatial"
	}
	return "reduction"
}

// Iter is a single loop of a stage's iteration domain.
type Iter struct {
	Name   string
	Extent int
	Kind   IterKind
}

// StageKind is a coarse classification used by sketch-generation rules and by
// the hardware simulator's overhead model.
type StageKind int

const (
	// ComputeHeavy stages (GEMM, convolutions) dominate FLOPs and have data
	// reuse; they are the targets of multi-level tiling.
	ComputeHeavy StageKind = iota
	// Elementwise stages (bias add, ReLU, residual add) have no reduction and
	// no reuse; they are candidates for inlining into their consumer.
	Elementwise
	// ReduceLight stages (softmax, pooling, layer-norm pieces) reduce over a
	// small domain without the reuse structure of a GEMM.
	ReduceLight
)

func (k StageKind) String() string {
	switch k {
	case ComputeHeavy:
		return "compute"
	case Elementwise:
		return "elementwise"
	case ReduceLight:
		return "reduce"
	}
	return fmt.Sprintf("StageKind(%d)", int(k))
}

// AxisRef describes how one dimension of an accessed tensor is indexed by the
// stage's iteration domain. A window access (convolution input) is modeled as
// extent(dim) = Scale*extent(iter) + Offset, which is all the cache-footprint
// model needs.
type AxisRef struct {
	Iter   int  // index into Stage.Spatial or Stage.Reduce
	Reduce bool // true if the iterator is a reduction axis
	Scale  int  // stride multiplier; 0 is normalized to 1
	Offset int  // additive window extension (e.g. kernel-1 for stride-1 conv)
}

// Access is one input-tensor access pattern of a stage.
type Access struct {
	Tensor    string
	ElemBytes int // bytes per element; 0 is normalized to 4 (float32)
	Dims      []AxisRef
	// Producer optionally names the stage within the same subgraph whose
	// output this access reads; empty means an external input.
	Producer string
}

// Stage is one computation of a subgraph: an iteration domain producing one
// output tensor from zero or more input accesses.
type Stage struct {
	Name    string
	Kind    StageKind
	Spatial []Iter
	Reduce  []Iter
	Inputs  []Access

	// FLOPsPerPoint is the number of floating-point operations performed per
	// point of the full iteration domain (spatial × reduction). A multiply-
	// accumulate counts as 2.
	FLOPsPerPoint float64

	// OutElemBytes is bytes per output element; 0 is normalized to 4.
	OutElemBytes int

	// Capability flags consumed by the sketch-generation rules (paper Table 2).
	HasDataReuse         bool
	CanInline            bool
	HasReductionParallel bool
}

// OutputElems returns the number of elements of the stage's output tensor,
// i.e. the product of spatial extents.
func (s *Stage) OutputElems() int64 {
	n := int64(1)
	for _, it := range s.Spatial {
		n *= int64(it.Extent)
	}
	return n
}

// ReduceElems returns the product of reduction extents (1 if none).
func (s *Stage) ReduceElems() int64 {
	n := int64(1)
	for _, it := range s.Reduce {
		n *= int64(it.Extent)
	}
	return n
}

// FLOPs returns the total floating-point work of the stage.
func (s *Stage) FLOPs() float64 {
	return s.FLOPsPerPoint * float64(s.OutputElems()) * float64(s.ReduceElems())
}

// OutputBytes returns the size of the stage's output tensor in bytes.
func (s *Stage) OutputBytes() int64 {
	return s.OutputElems() * int64(normBytes(s.OutElemBytes))
}

// InputBytes returns the total size of all distinct input tensors in bytes,
// assuming each tensor is stored once at its full footprint.
func (s *Stage) InputBytes() int64 {
	total := int64(0)
	for _, a := range s.Inputs {
		total += s.AccessBytes(a)
	}
	return total
}

// AccessBytes returns the full footprint of one access in bytes.
func (s *Stage) AccessBytes(a Access) int64 {
	n := int64(normBytes(a.ElemBytes))
	for _, d := range a.Dims {
		n *= int64(s.axisExtent(d))
	}
	return n
}

// AccessTileBytes returns the footprint in bytes of one access when the
// iteration domain is restricted to the given tile extents. spatialTile and
// reduceTile give the tile extent of each spatial/reduction iterator and must
// match the lengths of Spatial/Reduce.
func (s *Stage) AccessTileBytes(a Access, spatialTile, reduceTile []int) int64 {
	n := int64(normBytes(a.ElemBytes))
	for _, d := range a.Dims {
		var tile, full int
		if d.Reduce {
			tile, full = reduceTile[d.Iter], s.Reduce[d.Iter].Extent
		} else {
			tile, full = spatialTile[d.Iter], s.Spatial[d.Iter].Extent
		}
		scale := d.Scale
		if scale == 0 {
			scale = 1
		}
		ext := scale*tile + d.Offset
		fullExt := scale*full + d.Offset
		if ext > fullExt {
			ext = fullExt
		}
		if ext < 1 {
			ext = 1
		}
		n *= int64(ext)
	}
	return n
}

func (s *Stage) axisExtent(d AxisRef) int {
	scale := d.Scale
	if scale == 0 {
		scale = 1
	}
	if d.Reduce {
		return scale*s.Reduce[d.Iter].Extent + d.Offset
	}
	return scale*s.Spatial[d.Iter].Extent + d.Offset
}

func normBytes(b int) int {
	if b == 0 {
		return 4
	}
	return b
}

// Validate checks internal consistency of the stage definition.
func (s *Stage) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("texpr: stage with empty name")
	}
	if len(s.Spatial) == 0 {
		return fmt.Errorf("texpr: stage %q has no spatial iterators", s.Name)
	}
	for _, it := range s.Spatial {
		if it.Extent <= 0 {
			return fmt.Errorf("texpr: stage %q spatial iter %q extent %d", s.Name, it.Name, it.Extent)
		}
		if it.Kind != Spatial {
			return fmt.Errorf("texpr: stage %q iter %q listed as spatial but kind %v", s.Name, it.Name, it.Kind)
		}
	}
	for _, it := range s.Reduce {
		if it.Extent <= 0 {
			return fmt.Errorf("texpr: stage %q reduce iter %q extent %d", s.Name, it.Name, it.Extent)
		}
		if it.Kind != Reduction {
			return fmt.Errorf("texpr: stage %q iter %q listed as reduction but kind %v", s.Name, it.Name, it.Kind)
		}
	}
	for _, a := range s.Inputs {
		for _, d := range a.Dims {
			if d.Reduce {
				if d.Iter < 0 || d.Iter >= len(s.Reduce) {
					return fmt.Errorf("texpr: stage %q access %q references reduce iter %d of %d", s.Name, a.Tensor, d.Iter, len(s.Reduce))
				}
			} else if d.Iter < 0 || d.Iter >= len(s.Spatial) {
				return fmt.Errorf("texpr: stage %q access %q references spatial iter %d of %d", s.Name, a.Tensor, d.Iter, len(s.Spatial))
			}
		}
	}
	if s.FLOPsPerPoint < 0 {
		return fmt.Errorf("texpr: stage %q negative FLOPsPerPoint", s.Name)
	}
	return nil
}

// Subgraph is a small DAG of stages executed as one fused unit, the atomic
// tuning target of the auto-scheduler (a "task" in Ansor terminology).
type Subgraph struct {
	Name   string
	Stages []*Stage
	// Weight is the number of times this subgraph appears in the enclosing
	// network (w_n in the paper's problem formulation). 1 for bare operators.
	Weight int

	producerIdx [][]int // per stage: indices of producer stages
	consumerIdx [][]int // per stage: indices of consumer stages
	fingerprint string  // rendered once by NewSubgraph
}

// NewSubgraph builds and validates a subgraph from its stages, resolving the
// Producer names of each access into DAG edges, and renders its fingerprint.
// The stages must not change afterwards; only Weight may.
func NewSubgraph(name string, weight int, stages ...*Stage) (*Subgraph, error) {
	if name == "" {
		return nil, fmt.Errorf("texpr: subgraph with empty name")
	}
	if weight <= 0 {
		weight = 1
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("texpr: subgraph %q has no stages", name)
	}
	sg := &Subgraph{Name: name, Stages: stages, Weight: weight}
	byName := make(map[string]int, len(stages))
	for i, st := range stages {
		if err := st.Validate(); err != nil {
			return nil, err
		}
		if _, dup := byName[st.Name]; dup {
			return nil, fmt.Errorf("texpr: subgraph %q has duplicate stage %q", name, st.Name)
		}
		byName[st.Name] = i
	}
	sg.producerIdx = make([][]int, len(stages))
	sg.consumerIdx = make([][]int, len(stages))
	for i, st := range stages {
		for _, a := range st.Inputs {
			if a.Producer == "" {
				continue
			}
			j, ok := byName[a.Producer]
			if !ok {
				return nil, fmt.Errorf("texpr: subgraph %q stage %q reads unknown producer %q", name, st.Name, a.Producer)
			}
			if j >= i {
				return nil, fmt.Errorf("texpr: subgraph %q stage %q reads later stage %q (stages must be topologically ordered)", name, st.Name, a.Producer)
			}
			sg.producerIdx[i] = append(sg.producerIdx[i], j)
			sg.consumerIdx[j] = append(sg.consumerIdx[j], i)
		}
	}
	sg.fingerprint = sg.render()
	return sg, nil
}

// MustSubgraph is NewSubgraph that panics on error, for static workload tables.
func MustSubgraph(name string, weight int, stages ...*Stage) *Subgraph {
	sg, err := NewSubgraph(name, weight, stages...)
	if err != nil {
		panic(err)
	}
	return sg
}

// Producers returns the indices of stages whose outputs stage i reads.
func (g *Subgraph) Producers(i int) []int { return g.producerIdx[i] }

// Consumers returns the indices of stages that read stage i's output.
func (g *Subgraph) Consumers(i int) []int { return g.consumerIdx[i] }

// MainStage returns the index of the stage with the most FLOPs — the target
// of multi-level tiling in every sketch.
func (g *Subgraph) MainStage() int {
	best, bestF := 0, -1.0
	for i, st := range g.Stages {
		if f := st.FLOPs(); f > bestF {
			best, bestF = i, f
		}
	}
	return best
}

// FLOPs returns the total floating-point work of one execution of the
// subgraph.
func (g *Subgraph) FLOPs() float64 {
	total := 0.0
	for _, st := range g.Stages {
		total += st.FLOPs()
	}
	return total
}

// Fingerprint returns a stable identity of the subgraph for tuning-record
// logs: the subgraph name plus an FNV-1a hash over the canonical structure
// (stage names, kinds, iteration extents, FLOP densities, capability flags and
// access patterns). Two subgraphs share a fingerprint exactly when a schedule
// of one is a valid schedule of the other with the same simulated performance,
// so cached tuning records are transferable between them. Weight is excluded:
// it scales the network-level objective, not the schedule space.
func (g *Subgraph) Fingerprint() string { return g.fingerprint }

// render computes the fingerprint Fingerprint returns.
func (g *Subgraph) render() string {
	var b strings.Builder
	for _, st := range g.Stages {
		fmt.Fprintf(&b, "|%s:%d:%g:%d%d%d:%d", st.Name, st.Kind, st.FLOPsPerPoint,
			b2i(st.HasDataReuse), b2i(st.CanInline), b2i(st.HasReductionParallel), st.OutElemBytes)
		for _, it := range st.Spatial {
			fmt.Fprintf(&b, ",s%d", it.Extent)
		}
		for _, it := range st.Reduce {
			fmt.Fprintf(&b, ",r%d", it.Extent)
		}
		for _, a := range st.Inputs {
			fmt.Fprintf(&b, ";%s:%s:%d", a.Tensor, a.Producer, a.ElemBytes)
			for _, d := range a.Dims {
				fmt.Fprintf(&b, ",%d:%t:%d:%d", d.Iter, d.Reduce, d.Scale, d.Offset)
			}
		}
	}
	h := uint64(14695981039346656037)
	for _, c := range []byte(b.String()) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return fmt.Sprintf("%s@%016x", g.Name, h)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// String renders a short human-readable description of the subgraph.
func (g *Subgraph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "subgraph %s (weight %d):\n", g.Name, g.Weight)
	for i, st := range g.Stages {
		fmt.Fprintf(&b, "  [%d] %s %s spatial=", i, st.Name, st.Kind)
		for j, it := range st.Spatial {
			if j > 0 {
				b.WriteByte('x')
			}
			fmt.Fprintf(&b, "%d", it.Extent)
		}
		if len(st.Reduce) > 0 {
			b.WriteString(" reduce=")
			for j, it := range st.Reduce {
				if j > 0 {
					b.WriteByte('x')
				}
				fmt.Fprintf(&b, "%d", it.Extent)
			}
		}
		fmt.Fprintf(&b, " flops=%.3g\n", st.FLOPs())
	}
	return b.String()
}
