// Package pretrain fits cost models offline from persistent tuning journals
// (internal/tunelog) — the value-function transfer idea of Steiner et al.:
// a model trained on prior measurements cuts the trials a new run needs.
//
// Features are not stored in the journal; they are regenerated exactly. A
// record carries the schedule's serialized transform steps, sketch generation
// is deterministic, and schedule.UnmarshalSteps reconstructs the identical
// schedule against the regenerated sketch list — so Features() of the replay
// equals Features() of the original measurement bit-for-bit, and the
// pretrained model is byte-reproducible from the journal alone.
//
// Replay order is the journal's load order (itself deterministic for every
// worker count), which makes pretraining part of the determinism contract:
// same journal → same model → same search trajectory.
package pretrain

import (
	"math"

	"harl/internal/costmodel"
	"harl/internal/search"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/tunelog"
)

// logPerf is the model target for a measured execution time — the same
// log-throughput the online path feeds the model (search.Task.MeasureBatch),
// so offline and online samples are directly comparable.
func logPerf(execSec float64) float64 { return math.Log(1 / execSec) }

// Stats summarizes one offline fit.
type Stats struct {
	// Records is the number of journal records replayed into the model.
	Records int
	// Workloads is the number of distinct workload fingerprints that
	// contributed replayed records.
	Workloads int
	// Skipped counts matching records that could not enter the model:
	// steps that failed to reconstruct against the regenerated sketches
	// (foreign or stale journals), or features of a structurally
	// incompatible dimension (workload families mixed in one journal — the
	// fit keeps the most-sampled dimension, like core's mergedCostModel).
	Skipped int
	// Samples is the model's resulting training-set size and Trained whether
	// the fit produced a usable ensemble.
	Samples int
	Trained bool
}

// SeedTask replays every record of db matching the task's (workload
// fingerprint, target) key into the task's cost model — in journal order —
// and refits once, so the first engine round starts from a model that knows
// the workload. Unlike warm-starting, nothing is seeded into the task's best
// or measured set: pretraining informs the reward signal only, and the
// engines still measure whatever they pick. It returns the number of records
// replayed.
func SeedTask(db *tunelog.Database, t *search.Task) int {
	fp, target := t.Graph.Fingerprint(), t.Plat.Name
	n := 0
	for _, rec := range db.Records() {
		if rec.Workload != fp || rec.Target != target {
			continue
		}
		s, err := rec.Schedule(t.Sketches)
		if err != nil {
			continue
		}
		t.PretrainSample(s, rec.ExecSec)
		n++
	}
	if n > 0 {
		t.FinishPretrain()
	}
	return n
}

// FitModel builds a fresh model of the given parameters from every record of
// db that matches one of the workloads on the target — the harl-train path
// that turns a committed journal into a reusable checkpoint artifact. Records
// are replayed in journal order across all workloads, so the fit is
// deterministic. One model can serve several workloads as long as they are
// structurally compatible (equal feature dimension — e.g. the GEMM family of
// a network); the fit keeps the most-sampled dimension and counts records of
// other dimensions in Stats.Skipped.
func FitModel(db *tunelog.Database, graphs []*texpr.Subgraph, target string, p costmodel.Params) (*costmodel.Model, Stats) {
	sketches := make(map[string][]*sketch.Sketch, len(graphs))
	for _, g := range graphs {
		fp := g.Fingerprint()
		if _, ok := sketches[fp]; !ok {
			sketches[fp] = sketch.Generate(g)
		}
	}
	// Pass 1: decode every matching record and count samples per feature
	// dimension. The fit keeps the dimension that carries the most samples
	// (first-seen wins ties) — the same policy as core's mergedCostModel, so
	// the harl-train artifact and a network run's ModelOut artifact agree on
	// which structural family a mixed journal trains.
	type sample struct {
		feats    []float64
		y        float64
		workload string
	}
	var samples []sample
	var st Stats
	counts := make(map[int]int)
	bestDim, bestN := 0, -1
	for _, rec := range db.Records() {
		sks, ok := sketches[rec.Workload]
		if !ok || rec.Target != target {
			continue
		}
		s, err := rec.Schedule(sks)
		if err != nil {
			st.Skipped++
			continue
		}
		feats := s.Features()
		samples = append(samples, sample{feats, logPerf(rec.ExecSec), rec.Workload})
		d := len(feats)
		counts[d]++
		if counts[d] > bestN {
			bestDim, bestN = d, counts[d]
		}
	}
	// Pass 2: replay the kept dimension in journal order.
	m := costmodel.New(p)
	matched := make(map[string]bool)
	for _, sm := range samples {
		if len(sm.feats) != bestDim {
			st.Skipped++
			continue
		}
		m.Add(sm.feats, sm.y)
		st.Records++
		if !matched[sm.workload] {
			matched[sm.workload] = true
			st.Workloads++
		}
	}
	m.Refit()
	st.Samples, st.Trained = m.Len(), m.Trained()
	return m, st
}
