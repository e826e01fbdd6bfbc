package search_test

import (
	"bytes"
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"harl/internal/core"
	"harl/internal/costmodel"
	"harl/internal/hardware"
	"harl/internal/pretrain"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// countingModel is the production GBDT with its seams counted: how often it
// was fitted, and whether a fit ever ran beside a read. The embedded model
// keeps every optional interface (ParallelRefitter, BatchInto) and the codec,
// so a task takes the paths it takes in production.
type countingModel struct {
	*costmodel.Model
	t       *testing.T
	refits  int
	reads   atomic.Int64 // Predict/PredictBatch*/Throughput calls in flight
	fitting atomic.Bool
}

var (
	_ costmodel.CostModel        = (*countingModel)(nil)
	_ costmodel.BatchInto        = (*countingModel)(nil)
	_ costmodel.ParallelRefitter = (*countingModel)(nil)
)

func (c *countingModel) Refit() {
	c.fitting.Store(true)
	if n := c.reads.Load(); n != 0 {
		c.t.Errorf("Refit began with %d model reads in flight", n)
	}
	c.refits++
	c.Model.Refit()
	c.fitting.Store(false)
}

// read brackets one model read; a fit must never be running beside it — the
// task fits on its own goroutine before it fans reads across the pool.
func (c *countingModel) read() func() {
	c.reads.Add(1)
	if c.fitting.Load() {
		c.t.Error("model read during a Refit")
	}
	return func() { c.reads.Add(-1) }
}

func (c *countingModel) Predict(x []float64) float64 {
	defer c.read()()
	return c.Model.Predict(x)
}

func (c *countingModel) PredictBatch(xs [][]float64) []float64 {
	defer c.read()()
	return c.Model.PredictBatch(xs)
}

func (c *countingModel) PredictBatchInto(xs [][]float64, out []float64) {
	defer c.read()()
	c.Model.PredictBatchInto(xs, out)
}

func (c *countingModel) Throughput(x []float64) float64 {
	defer c.read()()
	return c.Model.Throughput(x)
}

// eagerEngine reads the model after every round, so every version a round
// commits is fitted at once: the reference schedule a fit-on-read session is
// compared with.
type eagerEngine struct{ search.Engine }

func (e eagerEngine) RunRound(t *search.Task, k int) int {
	n := e.Engine.RunRound(t, k)
	t.FittedCost()
	return n
}

// session is one operator session assembled from the search-level pieces
// (the task set of one, the preset's engine, TuneSession), with the counting
// double in the task's model slot.
type session struct {
	task    *search.Task
	model   *countingModel
	journal bytes.Buffer
}

func runSession(t *testing.T, sg *texpr.Subgraph, scheduler string, workers int, eager bool) *session {
	t.Helper()
	const seed, trials = 5, 64
	plat := hardware.CPUXeon6226R()
	rng := xrand.New(seed)
	meas := hardware.NewMeasurer(hardware.NewSimulator(plat), rng.Split())
	s := &session{task: search.NewTask(sg, plat, meas, rng.Split())}
	if workers != 1 {
		s.task.Pool = search.NewParallelPool(workers)
	}
	s.model = &countingModel{Model: costmodel.New(costmodel.DefaultParams()), t: t}
	s.task.Cost = s.model
	jr := tunelog.NewJournal(&s.journal)
	fp := sg.Fingerprint()
	s.task.OnMeasure = func(sc *schedule.Schedule, exec float64, trial int) {
		if err := jr.Append(tunelog.NewRecordFP(fp, plat.Name, scheduler, sc, exec, trial, seed)); err != nil {
			t.Fatal(err)
		}
	}
	mk, _, err := core.EngineFactory(scheduler)
	if err != nil {
		t.Fatal(err)
	}
	eng := mk()
	if eager {
		eng = eagerEngine{eng}
	}
	search.TuneSession(context.Background(), eng, s.task, trials, 16, nil)
	if s.task.Trials < trials {
		t.Fatalf("%s: %d of %d trials", scheduler, s.task.Trials, trials)
	}
	return s
}

// checkpointBytes reads the task's model through FittedCost and returns its
// codec bytes: the digest two models are compared by.
func checkpointBytes(t *testing.T, task *search.Task) []byte {
	t.Helper()
	b, err := task.FittedCost().(interface{ MarshalCheckpoint() ([]byte, error) }).MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFitOnFirstRead pins the demand-driven fit for every scheduler preset
// at pool widths 1 and 4: a session that fits a training-set version only
// when something reads the model is the session that fits every version as
// its round commits it — same journal bytes, trials, best log, version count
// and simulated clock — while the model-free engines never fit and the others
// skip at least their last version; the first read after the session fits
// once, and that ensemble is the one pretrain.SeedTask trains a fresh task
// with from the session's own journal.
// Under -race at width 4 the double also fails the test if a fit ever
// overlaps a read: the fit happens before the fan-out, not inside it.
func TestFitOnFirstRead(t *testing.T) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	for _, name := range core.SchedulerNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			eager := runSession(t, sg, name, 1, true)
			et := eager.task
			artifact := checkpointBytes(t, et)
			db := tunelog.NewDatabase()
			if err := db.Load(bytes.NewReader(eager.journal.Bytes())); err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(1)
			offline := search.NewTask(sg, et.Plat, hardware.NewMeasurer(hardware.NewSimulator(et.Plat), rng.Split()), rng.Split())
			if n := pretrain.SeedTask(db, offline); n != et.Trials {
				t.Fatalf("replayed %d of the session's %d trials", n, et.Trials)
			}
			if !bytes.Equal(artifact, checkpointBytes(t, offline)) {
				t.Fatal("the session's model is not the one its own journal trains")
			}
			for _, workers := range []int{1, 4} {
				lazy := runSession(t, sg, name, workers, false)
				lt := lazy.task
				if !bytes.Equal(lazy.journal.Bytes(), eager.journal.Bytes()) {
					t.Fatalf("w=%d: journals differ between fit-on-read and fit-per-round", workers)
				}
				if lt.Trials != et.Trials || !slices.Equal(lt.BestLog, et.BestLog) ||
					lt.CostRefits != et.CostRefits || lt.Meas.CostSec() != et.Meas.CostSec() {
					t.Fatalf("w=%d: session state differs: trials %d/%d versions %d/%d clock %v/%v",
						workers, lt.Trials, et.Trials, lt.CostRefits, et.CostRefits, lt.Meas.CostSec(), et.Meas.CostSec())
				}
				during := lazy.model.refits
				if name == "random" || name == "flextensor" {
					if during != 0 {
						t.Fatalf("w=%d: %d fits by an engine that never reads the model", workers, during)
					}
				} else if during < 1 || during > lt.CostRefits-1 {
					t.Fatalf("w=%d: %d fits for %d versions, want 1..%d", workers, during, lt.CostRefits, lt.CostRefits-1)
				}
				first := checkpointBytes(t, lt)
				lt.FittedCost()
				if lazy.model.refits != during+1 {
					t.Fatalf("w=%d: two reads after the session made %d fits, want 1", workers, lazy.model.refits-during)
				}
				if !bytes.Equal(first, artifact) {
					t.Fatalf("w=%d: fit-on-read and fit-per-round artifacts differ", workers)
				}
			}
		})
	}
}
