package costmodel

import "math"

// CostModel is the learned performance model the search stack programs
// against. Everything outside this package — search.Task, the engines, the
// tuners in internal/core — depends only on this interface; the concrete
// GBDT (Model) appears solely in constructor wiring, so alternative models
// (a pretrained ensemble loaded from a checkpoint, a mock in tests, a future
// neural model) drop in without touching the search layers.
//
// Implementations must be deterministic: equal training histories must yield
// equal models, and Predict/PredictBatch/Throughput must be pure between
// refits — the worker-count invariance of the tuning engines (workers=1 ≡
// workers=N byte-identical) rests on it.
type CostModel interface {
	// Add appends one measured sample: a schedule feature vector and its
	// log-throughput target log(1/exec).
	Add(x []float64, y float64)
	// Refit rebuilds the model from every stored sample.
	Refit()
	// Predict returns the modeled log-throughput of one feature vector.
	Predict(x []float64) float64
	// PredictBatch predicts many feature vectors in one pass; the result
	// matches element-wise application of Predict exactly.
	PredictBatch(xs [][]float64) []float64
	// Throughput converts a prediction into the strictly positive score C(s)
	// of the ratio-form RL reward.
	Throughput(x []float64) float64
	// Trained reports whether the model has a fitted ensemble.
	Trained() bool
	// Len returns the number of stored training samples.
	Len() int
}

// ParallelRefitter is implemented by cost models whose Refit fans per-feature
// binning and split scans across a worker pool. The contract is strict: the
// fitted model must be bit-identical for every worker count (the runner only
// changes wall-clock time), so installing a task's pool cannot perturb the
// workers=1 ≡ workers=N journal contract. search.Task installs its pool
// before each fit (FittedCost).
type ParallelRefitter interface {
	SetRunner(Runner)
}

// BatchInto is implemented by cost models that can write batched predictions
// into a caller-owned slice, letting steady-state scorers reuse one output
// buffer instead of allocating per call. out must be at least len(xs) long;
// the first len(xs) elements match PredictBatch exactly.
type BatchInto interface {
	PredictBatchInto(xs [][]float64, out []float64)
}

// Checkpointer is implemented by cost models that serialize to the versioned
// checkpoint format (see checkpoint.go). Callers that hold a CostModel
// type-assert against it to save artifacts without naming the concrete type.
type Checkpointer interface {
	MarshalCheckpoint() ([]byte, error)
}

// ToThroughput maps a log-throughput prediction to the positive score C(s),
// clamping the exponent so the ratio reward stays well-behaved before the
// model has seen data. Model.Throughput is exactly ToThroughput∘Predict, and
// batch scorers apply it element-wise over PredictBatch.
func ToThroughput(p float64) float64 {
	if p > 60 {
		p = 60
	}
	if p < -60 {
		p = -60
	}
	return math.Exp(p)
}
