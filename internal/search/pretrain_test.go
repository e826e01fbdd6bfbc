package search_test

import (
	"bytes"
	"context"
	"testing"

	"harl/internal/core"
	"harl/internal/hardware"
	"harl/internal/search"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// journalFor runs a short tuning job and returns its records as a database.
func journalFor(t *testing.T, sg *texpr.Subgraph, plat *hardware.Platform, trials int, seed uint64) *tunelog.Database {
	t.Helper()
	var buf bytes.Buffer
	jr := tunelog.NewJournal(&buf)
	tn, err := core.NewOperatorTuner(sg, plat, "ansor", 16, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	tn.AttachJournal(jr, seed)
	tn.RunCtx(context.Background(), trials)
	if tn.Trials() < trials {
		t.Fatalf("journal run measured %d of %d trials", tn.Trials(), trials)
	}
	db := tunelog.NewDatabase()
	if err := db.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if db.Size() == 0 {
		t.Fatal("empty journal")
	}
	return db
}

func newTask(sg *texpr.Subgraph, plat *hardware.Platform, seed uint64) *search.Task {
	rng := xrand.New(seed)
	meas := hardware.NewMeasurer(hardware.NewSimulator(plat), rng.Split())
	return search.NewTask(sg, plat, meas, rng.Split())
}

func TestPretrainReplaysJournal(t *testing.T) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	plat := hardware.CPUXeon6226R()
	db := journalFor(t, sg, plat, 64, 3)

	task := newTask(sg, plat, 1)
	n := task.Pretrain(db)
	if n != db.Size() {
		t.Fatalf("replayed %d of %d records", n, db.Size())
	}
	if !task.Pretrained || task.CostRefits != 1 {
		t.Fatalf("pretrained=%v refits=%d", task.Pretrained, task.CostRefits)
	}
	if task.Cost.Len() != n || !task.FittedCost().Trained() {
		t.Fatalf("model holds %d samples, trained=%v", task.Cost.Len(), task.FittedCost().Trained())
	}
	// Model-only: nothing seeded into the task's search state.
	if task.Best != nil || task.Trials != 0 {
		t.Fatal("pretraining must not seed schedules or charge trials")
	}
	// The same journal trains the same model, whatever task seed replays it.
	again := newTask(sg, plat, 2)
	again.Pretrain(db)
	if !bytes.Equal(checkpointBytes(t, task), checkpointBytes(t, again)) {
		t.Fatal("the same journal trained different models")
	}
}

func TestPretrainIgnoresForeignRecords(t *testing.T) {
	gemm := workload.GEMM("g", 1, 256, 256, 256)
	plat := hardware.CPUXeon6226R()
	db := journalFor(t, gemm, plat, 48, 3)

	other := newTask(workload.GEMM("g2", 1, 128, 128, 512), plat, 1)
	if n := other.Pretrain(db); n != 0 {
		t.Fatalf("foreign workload replayed %d records", n)
	}
	if other.Pretrained {
		t.Fatal("task with no matching records must stay cold")
	}
	gpu := newTask(gemm, hardware.ByName("gpu"), 1)
	if n := gpu.Pretrain(db); n != 0 {
		t.Fatalf("foreign target replayed %d records", n)
	}
}

// TestWarmStartTwiceAddsOneSample seeds one task twice from the same
// database, as a registry hit equal to the resume best does: the second seed
// finds the schedule already seeded and leaves the cost model alone.
func TestWarmStartTwiceAddsOneSample(t *testing.T) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	plat := hardware.CPUXeon6226R()
	db := journalFor(t, sg, plat, 32, 3)

	task := newTask(sg, plat, 1)
	if !task.WarmStartFrom(db) {
		t.Fatal("first warm start found no record")
	}
	samples, refits, best := task.Cost.Len(), task.CostRefits, task.BestExec
	if samples != 1 || refits != 1 {
		t.Fatalf("first warm start: %d samples, %d refits, want 1 and 1", samples, refits)
	}
	if !task.WarmStartFrom(db) {
		t.Fatal("second warm start found no record")
	}
	if task.Cost.Len() != samples || task.CostRefits != refits || task.BestExec != best {
		t.Fatalf("second warm start moved the task: %d samples, %d refits, best %g; want %d, %d, %g",
			task.Cost.Len(), task.CostRefits, task.BestExec, samples, refits, best)
	}
}
