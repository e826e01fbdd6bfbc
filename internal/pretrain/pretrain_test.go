package pretrain_test

import (
	"bytes"
	"context"
	"testing"

	"harl/internal/core"
	"harl/internal/costmodel"
	"harl/internal/hardware"
	"harl/internal/pretrain"
	"harl/internal/search"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// journalFor runs a short tuning job and returns its records as a database,
// plus the best measured (noisy) execution time.
func journalFor(t *testing.T, sg *texpr.Subgraph, plat *hardware.Platform, trials int, seed uint64) (*tunelog.Database, float64) {
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
	best, ok := db.Best(sg.Fingerprint(), plat.Name)
	if !ok {
		t.Fatal("no best record")
	}
	return db, best.ExecSec
}

func newTask(sg *texpr.Subgraph, plat *hardware.Platform, seed uint64) *search.Task {
	rng := xrand.New(seed)
	meas := hardware.NewMeasurer(hardware.NewSimulator(plat), rng.Split())
	return search.NewTask(sg, plat, meas, rng.Split())
}

func TestSeedTaskReplaysJournal(t *testing.T) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	plat := hardware.CPUXeon6226R()
	db, _ := journalFor(t, sg, plat, 64, 3)

	task := newTask(sg, plat, 1)
	n := pretrain.SeedTask(db, task)
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
	pretrain.SeedTask(db, again)
	if !bytes.Equal(checkpoint(t, task), checkpoint(t, again)) {
		t.Fatal("the same journal trained different models")
	}
}

// checkpoint returns the codec bytes of the task's fitted model.
func checkpoint(t *testing.T, task *search.Task) []byte {
	t.Helper()
	data, err := task.FittedCost().(*costmodel.Model).MarshalCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSeedTaskIgnoresForeignRecords(t *testing.T) {
	gemm := workload.GEMM("g", 1, 256, 256, 256)
	plat := hardware.CPUXeon6226R()
	db, _ := journalFor(t, gemm, plat, 48, 3)

	other := newTask(workload.GEMM("g2", 1, 128, 128, 512), plat, 1)
	if n := pretrain.SeedTask(db, other); n != 0 {
		t.Fatalf("foreign workload replayed %d records", n)
	}
	if other.Pretrained {
		t.Fatal("task with no matching records must stay cold")
	}
	gpu := newTask(gemm, hardware.ByName("gpu"), 1)
	if n := pretrain.SeedTask(db, gpu); n != 0 {
		t.Fatalf("foreign target replayed %d records", n)
	}
}
