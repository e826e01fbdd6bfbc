// Package fleet puts hardware measurement — the hot path of tuning — behind
// an RPC seam, so one coordinator can fan measurement batches out to a pool
// of harl-worker daemons across machines (the request_remote device-pool
// shape of TVM/Ansor tuning scripts).
//
// The seam preserves the system's determinism contract end to end. A measured
// execution time is a pure function of (schedule, repetition index, noise
// seed) — hardware.NoisyExecSeeded — so a worker that receives the subgraph
// spec, target platform, noise seed and serialized schedule steps computes
// bit-exactly the values the coordinator's in-process path would. All
// order-sensitive bookkeeping (trial accounting, best-so-far logs, cost-model
// training, journal appends) stays on the coordinator in commit order.
// Tuning journals are therefore byte-identical regardless of which worker
// measured what — including when a worker dies mid-run and its batches are
// retried elsewhere or recovered by the in-process fallback.
//
// The package has three parts:
//
//   - the wire protocol (this file): versioned measure-batch request/response
//     types plus the worker's health report, sharing the unified v1 error
//     envelope (internal/wire) with the public REST API;
//   - Worker (server.go): the worker-side HTTP surface harl-worker serves —
//     POST /v1/measure executes batches with the deterministic simulator,
//     GET /healthz reports liveness and the served target platforms;
//   - Pool + RemoteMeasurer (pool.go, remote.go): the coordinator side —
//     lease-based batch assignment round-robining over healthy workers with
//     per-worker concurrency caps, per-batch timeouts, bounded retry with
//     exponential backoff, health-checked eject/readmit, and graceful
//     fallback to in-process measurement when no worker can take a batch.
package fleet

import (
	"harl/internal/texpr"
)

// protocolVersion is the measure-protocol schema version. Workers reject
// requests with a different version rather than misinterpreting them.
const protocolVersion = 1

// SubgraphSpec is a subgraph in wire form: exactly the exported structure of
// texpr.Subgraph, rebuilt (and revalidated) on the worker via
// texpr.NewSubgraph so producer/consumer edges are re-derived rather than
// trusted.
type SubgraphSpec struct {
	Name   string         `json:"name"`
	Weight int            `json:"weight"`
	Stages []*texpr.Stage `json:"stages"`
}

// specOf renders a subgraph for the wire.
func specOf(g *texpr.Subgraph) SubgraphSpec {
	return SubgraphSpec{Name: g.Name, Weight: g.Weight, Stages: g.Stages}
}

// Build reconstructs and validates the subgraph.
func (s SubgraphSpec) Build() (*texpr.Subgraph, error) {
	return texpr.NewSubgraph(s.Name, s.Weight, s.Stages...)
}

// TrialSpec is one trial of a measure batch: the schedule's serialized
// transform steps (schedule.MarshalSteps — the tuning-journal format) and the
// reserved noise-repetition index.
type TrialSpec struct {
	Steps string `json:"steps"`
	Seq   uint64 `json:"seq"`
}

// MeasureRequest is the body of POST /v1/measure: everything a worker needs
// to reproduce the coordinator's measurement values bit-exactly.
type MeasureRequest struct {
	V int `json:"v"`
	// Workload is the subgraph fingerprint the coordinator computed; the
	// worker recomputes it from the rebuilt spec and rejects a mismatch (a
	// schedule measured against the wrong structure would be silently wrong).
	Workload string `json:"workload"`
	// Target is the platform name (hardware.Platform.Name or its short name).
	Target string `json:"target"`
	// NoiseSeed is the coordinator measurer's noise seed.
	NoiseSeed uint64 `json:"noise_seed"`
	// Subgraph is the workload structure the schedules apply to.
	Subgraph SubgraphSpec `json:"subgraph"`
	// Trials are the schedules to measure, with their repetition indices.
	Trials []TrialSpec `json:"trials"`
}

// MeasureResponse is the 200 body of POST /v1/measure.
type MeasureResponse struct {
	V int `json:"v"`
	// ExecSec are the noisy measured execution times, aligned with the
	// request's trials.
	ExecSec []float64 `json:"exec_sec"`
}

// HealthResponse is the 200 body of GET /healthz on a worker: liveness plus
// the registration info the coordinator's pool consumes — which target
// platforms this worker serves (empty means all), and the work counters.
type HealthResponse struct {
	Status string `json:"status"`
	// Targets are the platform names this worker measures for. The pool
	// routes a task to a worker only when the task's platform is listed (or
	// the list is empty) — how heterogeneous fleets serve cpu- and gpu-target
	// workloads from one coordinator.
	Targets []string `json:"targets"`
	// Batches and Trials count the measure batches and individual trials
	// this worker has executed.
	Batches int64 `json:"batches"`
	Trials  int64 `json:"trials"`
}
