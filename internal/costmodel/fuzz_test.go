package costmodel

import (
	"bytes"
	"testing"
	"time"

	"harl/internal/xrand"
)

// FuzzUnmarshalCheckpoint drives the one door outside bytes reach the cost
// model through: whatever the loader accepts must be a model every entry
// point can be called on — Predict, PredictBatch (block, remainder and
// mismatched-row paths) and Refit, within a wall-clock bound — and one whose
// save → load → save is byte-stable. `make fuzz` runs it for 5 s.
func FuzzUnmarshalCheckpoint(f *testing.F) {
	small := New(DefaultParams())
	xs, ys := synth(xrand.New(31), 24, 3)
	for i := range xs {
		small.Add(xs[i], ys[i])
	}
	small.Refit()
	for _, m := range []*Model{small, New(DefaultParams())} {
		data, err := m.MarshalCheckpoint()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(chainCheckpoint(34, 6, true))
	f.Add(chainCheckpoint(6, 6, false))
	f.Add([]byte(`{"v":1,"xs":[[1,2],[3]],"ys":[1,2]}`))
	f.Add(sizedCheckpoint(maxTrees, 2, 8, 8))
	f.Add(wideCheckpoint(maxDim, true))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		first, err := m.MarshalCheckpoint()
		if err != nil {
			t.Fatalf("accepted model does not marshal: %v", err)
		}
		again, err := UnmarshalCheckpoint(first)
		if err != nil {
			t.Fatalf("own checkpoint does not load: %v", err)
		}
		second, err := again.MarshalCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("save → load → re-save is not byte-identical")
		}
		x := make([]float64, m.Dim())
		m.Predict(x)
		m.PredictBatch([][]float64{x, x, x, x, x})
		m.PredictBatch([][]float64{x, make([]float64, m.Dim()+1), x})
		// Refit costs NumTrees × samples × dim (and dim³ for the ridge term).
		// The loader bounds trees and dimension; rows are as many as the
		// artifact cares to spell out, so bound those here — and then the
		// first refit of whatever loaded must come back promptly.
		if m.Len() <= 256 {
			start := time.Now()
			m.Refit()
			if took := time.Since(start); took > 10*time.Second {
				t.Fatalf("first refit of a loaded model (%d trees × %d rows × %d features) took %v", m.P.NumTrees, m.Len(), m.Dim(), took)
			}
			m.PredictBatch([][]float64{x, x, x, x, x})
		}
	})
}
