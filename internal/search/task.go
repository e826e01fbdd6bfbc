// Package search implements the tuning engines of the HARL reproduction:
//
//   - HARL's hierarchical adaptive RL search (sketch-level SW-UCB bandit,
//     actor-critic parameter modification, adaptive-stopping track control,
//     cost-model-guided top-K measurement) — Section 4 and 5 of the paper;
//   - the Ansor baseline (uniform sketch selection + evolutionary search);
//   - the Flextensor baseline (fixed sketch, fixed-length RL tracks);
//   - a pure random-sampling baseline (the serving benchmark's miss scheduler,
//     tests and ablations).
//
// Engines operate on Tasks (one subgraph plus its sketches, cost model and
// measurement accounting) one round at a time, measuring a fixed number of
// candidates per round. One loop drives them: MultiTuner selects subgraphs
// wave by wave (paper §6.3) and runs the rounds; an operator run is the same
// loop over a one-task set (core.NewOperatorTuner's MultiTuner).
// internal/core wires presets and journals around it. A task's start-up
// state comes from past measurements before its first round: Task.Pretrain
// trains its cost model from a tuning journal and Task.WarmStartFrom seeds
// its best from one (a resume log, or the registry's hits).
// TuneSession, one engine on one task with no allocator, serves the
// benchmark's traced runs and tests.
package search

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"harl/internal/costmodel"
	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/xrand"
)

// Task is one tuning target: a subgraph bound to a platform, with its sketch
// set, per-task cost model, measurement records and search bookkeeping.
type Task struct {
	Graph    *texpr.Subgraph
	Sketches []*sketch.Sketch
	Plat     *hardware.Platform
	Meas     *hardware.Measurer
	// Cost is the task's learned performance model. The search layer depends
	// only on the costmodel.CostModel interface; the concrete GBDT appears
	// solely in constructor wiring (NewTask). Assign the field to wrap the
	// model; read the model (Trained, Predict*, Throughput) through
	// FittedCost. Add and Len need no fit.
	Cost costmodel.CostModel
	RNG  *xrand.RNG

	// Pool fans trial evaluation and cost-model scoring across workers. A
	// nil pool runs everything inline; any pool size yields byte-identical
	// results (see ParallelPool).
	Pool *ParallelPool

	// Remote, when non-nil, evaluates measurement batches out of process —
	// the RPC seam of the distributed measurement fleet (internal/fleet).
	// Remote evaluation computes exactly the values the local path would
	// (measured time is a pure function of schedule, repetition index and
	// the measurer's noise seed), and all order-sensitive bookkeeping stays
	// local, so journals are byte-identical whether a batch was measured
	// in-process, on any remote worker, or recovered through the fallback.
	// An EvalBatch error falls back to the in-process Pool path silently:
	// fleet loss degrades throughput, never correctness.
	Remote BatchEvaluator

	// OnMeasure, when set, receives every committed measurement — the
	// schedule, its noisy execution time and the task-local 1-based trial
	// index — in commit order. MeasureBatch commits serially in batch input
	// order regardless of the pool width, so the callback sequence is
	// byte-identical for every worker count. Warm-started schedules are not
	// replayed through it: it records new measurements only.
	OnMeasure func(s *schedule.Schedule, execSec float64, trial int)

	// Best measured schedule and its noisy execution time.
	Best     *schedule.Schedule
	BestExec float64

	// Trials is the number of trials charged to this task — the budget the
	// search spends. Every charged trial is a real measurement, committed to
	// the measurer and passed to OnMeasure.
	Trials int

	// BestLog records the task-local best execution time after every trial,
	// and TrialCost the global search-time at that trial (for time-to-target
	// metrics in network tuning).
	BestLog   []float64
	TrialCost []float64

	// TrackPositions collects, per finished schedule track, the relative
	// position of the track's best-scoring step (the paper's "critical step"
	// position: Fig. 1(c) and Fig. 7(b)).
	TrackPositions []float64

	// CostRefits counts the training-set versions committed for this task's
	// cost model — each is fitted if and when something reads the model (see
	// FittedCost) — and Pretrained reports whether the model carried offline
	// knowledge (a journal replay) before the first engine round — the
	// provenance surfaced by harl-tune's summary.
	CostRefits int
	Pretrained bool

	costStale bool // a committed version FittedCost has not fitted yet
	measured  map[uint64]bool
}

// BatchEvaluator evaluates one measurement batch, possibly out of process: it
// returns the noisy execution times of the schedules at the given repetition
// indices, aligned with the input. Implementations MUST return exactly the
// values hardware.NoisyExecSeeded computes for the task's simulator and noise
// seed — measured time is a pure function of (schedule, seq, seed), which is
// what lets the fleet keep tuning journals byte-identical regardless of which
// worker measured what. An error (or a misaligned result) makes the caller
// fall back to in-process evaluation of the same (schedule, seq) pairs.
type BatchEvaluator interface {
	EvalBatch(scheds []*schedule.Schedule, seqs []uint64) ([]float64, error)
}

// measureJob pairs a batch index with its reserved noise-repetition index.
type measureJob struct {
	idx int
	seq uint64
}

// NewTask builds a task with a fresh cost model and a split RNG stream. The
// measurer may be shared across tasks of a network so search time accumulates
// globally.
func NewTask(g *texpr.Subgraph, plat *hardware.Platform, meas *hardware.Measurer, rng *xrand.RNG) *Task {
	return &Task{
		Graph:    g,
		Sketches: sketch.Generate(g),
		Plat:     plat,
		Meas:     meas,
		Cost:     costmodel.New(costmodel.DefaultParams()),
		RNG:      rng,
		BestExec: math.Inf(1),
		measured: make(map[uint64]bool),
	}
}

// NumUnroll returns the platform's unroll-candidate count for sampling.
func (t *Task) NumUnroll() int { return len(t.Plat.UnrollDepths) }

// FeatureDim returns the task's schedule feature dimension (uniform across
// the task's sketches) — the structural-compatibility key for transferring
// cost-model knowledge between workloads.
func (t *Task) FeatureDim() int { return schedule.FeatureDim(t.Sketches[0]) }

// RandomSchedule samples a random schedule of the given sketch.
func (t *Task) RandomSchedule(sk *sketch.Sketch) *schedule.Schedule {
	return schedule.NewRandom(sk, t.NumUnroll(), t.RNG)
}

// Seen reports whether an identical configuration was already measured.
func (t *Task) Seen(s *schedule.Schedule) bool { return t.measured[s.Key()] }

// candidate is one configuration an engine visited in a round, with its
// cost-model score and its Key — the key candPool files it under.
type candidate struct {
	sched *schedule.Schedule
	score float64
	key   uint64
}

// candPool collects a round's visited configurations by Key; of equal
// configurations the first recorded stays.
type candPool map[uint64]candidate

func (p candPool) record(s *schedule.Schedule, score float64) {
	k := s.Key()
	if _, ok := p[k]; !ok {
		p[k] = candidate{s, score, k}
	}
}

// rankUnseen returns the pool's not yet measured candidates, best score
// first. Ties break on the key, so the order is total and does not depend on
// map iteration order.
func (t *Task) rankUnseen(pool candPool) []candidate {
	cands := make([]candidate, 0, len(pool))
	for k, c := range pool {
		if !t.measured[k] {
			cands = append(cands, c)
		}
	}
	slices.SortFunc(cands, func(a, b candidate) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score != b.score:
			return 1
		}
		return cmp.Compare(a.key, b.key)
	})
	return cands
}

// MeasureBatch measures the given schedules (skipping already-measured
// configurations), commits them to the cost model's training set as a new
// version (refitCost) and updates the task's best. It returns the measured
// execution times aligned with the input slice (NaN for skipped duplicates).
//
// Trial evaluation (simulator + noise) fans out across the task's Pool; the
// order-sensitive bookkeeping — measurement-cost accounting, best-so-far
// logs, cost-model training — is committed serially in input order, so the
// result is byte-identical for every worker count.
func (t *Task) MeasureBatch(scheds []*schedule.Schedule) []float64 {
	out := make([]float64, len(scheds))
	var jobs []measureJob
	for i, s := range scheds {
		if s == nil || t.measured[s.Key()] {
			out[i] = math.NaN()
			continue
		}
		t.measured[s.Key()] = true
		jobs = append(jobs, measureJob{idx: i, seq: t.Meas.ReserveSeq(s.Key())})
	}
	if !t.evalRemote(scheds, jobs, out) {
		t.Pool.Run(len(jobs), func(j int) {
			jb := jobs[j]
			out[jb.idx] = t.Meas.NoisyExec(scheds[jb.idx], jb.seq)
		})
	}
	for _, jb := range jobs {
		s, exec := scheds[jb.idx], out[jb.idx]
		t.Meas.Commit(exec)
		t.Trials++
		if exec < t.BestExec {
			t.BestExec = exec
			t.Best = s
		}
		t.BestLog = append(t.BestLog, t.BestExec)
		t.TrialCost = append(t.TrialCost, t.Meas.CostSec())
		t.Cost.Add(s.Features(), math.Log(1/exec))
		if t.OnMeasure != nil {
			t.OnMeasure(s, exec, t.Trials)
		}
	}
	if len(jobs) > 0 {
		t.refitCost()
	}
	return out
}

// evalRemote dispatches the batch's fresh trials to the remote evaluator,
// reporting whether it produced a usable result. Reservation order (the seqs)
// was fixed by the caller before dispatch, so a failed remote attempt leaves
// the local fallback computing exactly the same values.
func (t *Task) evalRemote(scheds []*schedule.Schedule, jobs []measureJob, out []float64) bool {
	if t.Remote == nil || len(jobs) == 0 {
		return false
	}
	batch := make([]*schedule.Schedule, len(jobs))
	seqs := make([]uint64, len(jobs))
	for k, jb := range jobs {
		batch[k] = scheds[jb.idx]
		seqs[k] = jb.seq
	}
	res, err := t.Remote.EvalBatch(batch, seqs)
	if err != nil || len(res) != len(jobs) {
		return false
	}
	for k, jb := range jobs {
		out[jb.idx] = res[k]
	}
	return true
}

// refitCost commits the training set as a new version and counts it. Nothing
// is fitted until something reads the model (FittedCost): Refit is a pure
// function of the stored samples, so a version's first read finds the ensemble
// a fit here would have built, and a version superseded or abandoned unread
// costs nothing.
func (t *Task) refitCost() {
	t.costStale = true
	t.CostRefits++
}

// FittedCost returns the task's cost model, fitting the newest committed
// version first if it is still unread. Every model read goes through it, on
// the task's own goroutine and before any pool fan-out, so pool jobs only see
// a fitted, read-only model. A model that can fan its refit scans across
// workers gets the task's pool first (attached after construction: core wires
// it per tuner); the ensemble is bit-identical for every pool width (see
// costmodel.ParallelRefitter), so that only changes the fit's wall-clock time.
func (t *Task) FittedCost() costmodel.CostModel {
	if t.costStale {
		if pr, ok := t.Cost.(costmodel.ParallelRefitter); ok {
			pr.SetRunner(t.Pool.Run)
		}
		t.Cost.Refit()
		t.costStale = false
	}
	return t.Cost
}

// Pretrain replays every record of db matching the task's (workload
// fingerprint, target) key into the cost model, in journal order, and commits
// them as one training-set version, so the first engine round starts from a
// model that knows the workload — the value-function transfer of Steiner et
// al.: a model trained on prior measurements cuts the trials a new run needs.
// It returns the number of records replayed; records whose steps no longer
// reconstruct against the task's sketches (a foreign or stale journal) are
// skipped.
//
// Pretraining is model-only: unlike WarmStartFrom it charges no trial and
// seeds nothing into the best or the measured set, so the engines still
// measure whatever they pick. The journal is the one artifact. Features are
// not stored in it but regenerated exactly: sketch generation is
// deterministic and a record's serialized steps rebuild the identical
// schedule, so the same journal always trains the same model, bit for bit,
// and the replay is part of the determinism contract.
func (t *Task) Pretrain(db *tunelog.Database) int {
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
		if rec.ExecSec > 0 {
			t.Cost.Add(s.Features(), math.Log(1/rec.ExecSec))
		}
		n++
	}
	if n > 0 && t.Cost.Len() > 0 {
		t.refitCost()
		t.Pretrained = true
	}
	return n
}

// WarmStartFrom seeds the task from db's best record for its (workload
// fingerprint, target) key — the cache-reuse path of the tuning-record
// journal — and reports whether a usable record was found. A record whose
// steps no longer reconstruct against the task's sketches is ignored. The
// schedule becomes the task best if it beats the current one. The first time
// it seeds the task it is also marked measured (engines will not spend a
// trial re-measuring it) and primes the cost model, so the first engine round
// starts from a trained reward signal instead of a cold model; a repeat seed
// of the same schedule (a registry hit equal to the resume best) adds no
// second sample. It charges no measurement trial and appends nothing to the
// best-so-far logs: those track new measurements only.
func (t *Task) WarmStartFrom(db *tunelog.Database) bool {
	rec, ok := db.Best(t.Graph.Fingerprint(), t.Plat.Name)
	if !ok {
		return false
	}
	s, err := rec.Schedule(t.Sketches)
	if err != nil {
		return false
	}
	if rec.ExecSec <= 0 {
		return true
	}
	if rec.ExecSec < t.BestExec {
		t.BestExec = rec.ExecSec
		t.Best = s
	}
	if t.measured[s.Key()] {
		return true
	}
	t.measured[s.Key()] = true
	t.Cost.Add(s.Features(), math.Log(1/rec.ExecSec))
	t.refitCost()
	return true
}

// scoreChunk is the per-worker unit of ScoreBatch: large enough that
// PredictBatch amortizes its tree-at-a-time pass, small enough that a
// typical engine round (hundreds to ~1k candidates) still spreads across
// the pool.
const scoreChunk = 64

// scoreBuf holds one chunk's scratch — the feature-pointer matrix and the
// prediction output. Chunks borrow from scoreBufPool so steady-state scoring
// reuses a handful of buffers instead of allocating two slices per chunk per
// round; schedule feature vectors themselves are memoized on the schedules,
// so a chunk's feature "matrix" is pointers into those caches.
type scoreBuf struct {
	feats [][]float64
	preds []float64
}

var scoreBufPool = sync.Pool{New: func() any {
	return &scoreBuf{
		feats: make([][]float64, scoreChunk),
		preds: make([]float64, scoreChunk),
	}
}}

// ScoreBatch returns the cost model's positive performance score C(s) of each
// schedule, aligned with the input, and charges one cost-model query per
// schedule; before the model is trained every score is 1, uncharged, so HARL's
// ratio-form rewards are zero rather than arbitrary. Contiguous chunks fan out
// across the task's Pool, and each chunk extracts its features and predicts
// them in one PredictBatch pass (into a pooled buffer when the model supports
// costmodel.BatchInto). Chunks write disjoint output ranges and batch
// prediction is bit-identical to the model's single-row Throughput (the model
// is read-only between refits), so the scores are the same for every pool
// width.
func (t *Task) ScoreBatch(scheds []*schedule.Schedule) []float64 {
	out := make([]float64, len(scheds))
	cm := t.FittedCost()
	if !cm.Trained() {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	t.Meas.AddCostModelQueries(len(scheds))
	into, _ := cm.(costmodel.BatchInto)
	nChunks := (len(scheds) + scoreChunk - 1) / scoreChunk
	t.Pool.Run(nChunks, func(c int) {
		lo := c * scoreChunk
		hi := lo + scoreChunk
		if hi > len(scheds) {
			hi = len(scheds)
		}
		sb := scoreBufPool.Get().(*scoreBuf)
		feats := sb.feats[:hi-lo]
		for i := range feats {
			feats[i] = scheds[lo+i].Features()
		}
		preds := sb.preds[:hi-lo]
		if into != nil {
			into.PredictBatchInto(feats, preds)
		} else {
			preds = t.Cost.PredictBatch(feats)
		}
		for i, p := range preds {
			out[lo+i] = costmodel.ToThroughput(p)
		}
		scoreBufPool.Put(sb)
	})
	return out
}

// WeightedBestExec returns w_n · g_n, the task's contribution to the
// network-level objective (using the noise-free simulator time of the best
// schedule; +Inf before any measurement).
func (t *Task) WeightedBestExec() float64 {
	if t.Best == nil {
		return math.Inf(1)
	}
	return float64(t.Graph.Weight) * t.Meas.Sim.Exec(t.Best)
}

// Engine is one parameter-search strategy operating round by round.
type Engine interface {
	// RunRound performs one exploration round on the task and measures about
	// measureK candidates. It returns the number of measurements performed.
	RunRound(t *Task, measureK int) int
}

// ExploreRandom measures k uniformly random schedules — MultiTuner's fallback
// when an engine round produces nothing new (space exhausted or all
// duplicates).
func (t *Task) ExploreRandom(k int) {
	var batch []*schedule.Schedule
	for i := 0; i < k; i++ {
		sk := t.Sketches[t.RNG.Intn(len(t.Sketches))]
		batch = append(batch, t.RandomSchedule(sk))
	}
	t.MeasureBatch(batch)
}
