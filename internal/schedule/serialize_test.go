package schedule

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/workload"
	"harl/internal/xrand"
)

func TestMarshalStepsRoundTrip(t *testing.T) {
	// Marshal → Unmarshal → Marshal must be byte-identical for random
	// schedules of every sketch of several workloads.
	for _, sg := range []*struct {
		name     string
		sketches []*sketch.Sketch
	}{
		{"gemm", sketch.Generate(workload.GEMM("g", 1, 256, 512, 128))},
		{"c2d", sketch.Generate(workload.Conv2D("c", 1, 28, 28, 64, 64, 3, 1, 1))},
		{"gemm+ep", sketch.Generate(workload.GEMMEpilogue("ge", 1, 128, 128, 128, 2))},
	} {
		rng := xrand.New(11)
		for _, sk := range sg.sketches {
			for i := 0; i < 16; i++ {
				s := NewRandom(sk, 4, rng)
				steps := s.MarshalSteps()
				back, err := UnmarshalSteps(sg.sketches, steps)
				if err != nil {
					t.Fatalf("%s sketch %d: %v (steps %q)", sg.name, sk.ID, err, steps)
				}
				if got := back.MarshalSteps(); got != steps {
					t.Fatalf("%s: round trip %q -> %q", sg.name, steps, got)
				}
				if back.Key() != s.Key() {
					t.Fatalf("%s: schedule identity drifted through serialization", sg.name)
				}
				if err := back.Validate(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// marshalStepsFmt is the fmt renderer MarshalSteps replaced, kept as the
// reference its bytes are held to.
func marshalStepsFmt(s *Schedule) string {
	join := func(xs []int) string {
		parts := make([]string, len(xs))
		for i, x := range xs {
			parts[i] = strconv.Itoa(x)
		}
		return strings.Join(parts, ",")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sk=%d", s.Sk.ID)
	for a, row := range s.SpatialTiles {
		fmt.Fprintf(&b, " s%d=%s", a, join(row))
	}
	for r, row := range s.ReduceTiles {
		fmt.Fprintf(&b, " r%d=%s", r, join(row))
	}
	fmt.Fprintf(&b, " ca=%d pf=%d ur=%d/%d", s.ComputeAt, s.ParallelFuse, s.UnrollIdx, s.NumUnroll)
	return b.String()
}

// TestMarshalStepsMatchesFmtRenderer holds MarshalSteps to the fmt renderer
// byte for byte: over random schedules of every sketch of the Table-6
// operators and of BERT's subgraphs, and over hand-built ones with an empty
// tile row, negative knobs and a rendering longer than MarshalSteps' stack
// buffer.
func TestMarshalStepsMatchesFmtRenderer(t *testing.T) {
	var sgs []*texpr.Subgraph
	for _, cat := range workload.OperatorCategories() {
		sgs = append(sgs, workload.SuiteFor(cat, 1)...)
	}
	sgs = append(sgs, workload.BERT(1).Subgraphs...)
	rng := xrand.New(21)
	var scheds []*Schedule
	for _, sg := range sgs {
		for _, sk := range sketch.Generate(sg) {
			for i := 0; i < 16; i++ {
				scheds = append(scheds, NewRandom(sk, 4, rng))
			}
		}
	}
	sk := scheds[0].Sk
	long := make([]int, 40)
	for i := range long {
		long[i] = 1 << 40 * (i - 20)
	}
	scheds = append(scheds,
		&Schedule{Sk: sk, SpatialTiles: [][]int{{}, {7}}, ReduceTiles: [][]int{{}}, ComputeAt: -1, ParallelFuse: -22, UnrollIdx: 333, NumUnroll: -4444},
		&Schedule{Sk: sk, SpatialTiles: [][]int{long, {1, 2}}, ReduceTiles: [][]int{long}},
		&Schedule{Sk: sk},
	)
	for i, s := range scheds {
		if got, want := s.MarshalSteps(), marshalStepsFmt(s); got != want {
			t.Fatalf("schedule %d of %d: MarshalSteps %q, fmt renderer %q", i, len(scheds), got, want)
		}
	}
}

func TestMarshalStepsIsCanonical(t *testing.T) {
	// Equal search-space points marshal equal; any knob change marshals
	// differently.
	sk := gemmSketch(t)
	rng := xrand.New(5)
	s := NewRandom(sk, 4, rng)
	if s.MarshalSteps() != s.Clone().MarshalSteps() {
		t.Fatal("clone must marshal identically")
	}
	mut := s.Clone()
	mut.UnrollIdx = (mut.UnrollIdx + 1) % mut.NumUnroll
	if mut.MarshalSteps() == s.MarshalSteps() {
		t.Fatal("distinct schedules must marshal differently")
	}
}

func TestUnmarshalStepsRejectsGarbage(t *testing.T) {
	sketches := sketch.Generate(workload.GEMM("g", 1, 64, 64, 64))
	good := NewRandom(sketches[0], 4, xrand.New(1)).MarshalSteps()
	bad := []string{
		"",                                   // no sketch id
		"sk=99 ca=0 pf=0 ur=0/4",             // sketch out of range
		"sk=0 ca=0 pf=0 ur=0",                // malformed unroll
		"sk=0 s1=2,2 ca=0 pf=0 ur=0/4",       // tile row out of order
		"sk=0 zz=1",                          // unknown token
		"sk=0 s0=a,b,c,d ca=0 pf=0 ur=0/4",   // non-numeric tiles
		strings.Replace(good, "sk=0", "", 1), // sketch id stripped
	}
	for _, steps := range bad {
		if _, err := UnmarshalSteps(sketches, steps); err == nil {
			t.Fatalf("steps %q must be rejected", steps)
		}
	}
	// A structurally valid encoding whose products mismatch the extents must
	// fail validation rather than load silently.
	wrong := strings.Replace(good, "ur=", "ur=", 1) // keep good; mutate a tile row below
	parts := strings.Fields(wrong)
	for i, p := range parts {
		if strings.HasPrefix(p, "s0=") {
			parts[i] = "s0=1,1,1,7" // 7 does not divide 64
		}
	}
	if _, err := UnmarshalSteps(sketches, strings.Join(parts, " ")); err == nil {
		t.Fatal("extent-product mismatch must be rejected")
	}
}
