package core

import (
	"bytes"
	"context"
	"testing"

	"harl/internal/hardware"
	"harl/internal/search"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/workload"
)

// opRun is one finished operator run: its task and whether the warm database
// seeded it.
type opRun struct {
	Task        *search.Task
	WarmStarted bool
}

// tuneOperator runs one operator tuning job the way harl's session does:
// warm-start, journal, run. A nil warm database or journal skips that step.
func tuneOperator(t *testing.T, sg *texpr.Subgraph, plat *hardware.Platform, sched string, budget int, seed uint64, workers int, warm *tunelog.Database, jr *tunelog.Journal) opRun {
	t.Helper()
	tn, err := NewOperatorTuner(sg, plat, sched, 16, seed, workers)
	if err != nil {
		t.Fatal(err)
	}
	warmed := warm != nil && tn.MT.Tasks[0].WarmStartFrom(warm)
	if jr != nil {
		tn.AttachJournal(jr, seed)
	}
	if tn.RunCtx(context.Background(), budget) {
		t.Fatal("uncancelled run reported cancelled")
	}
	return opRun{Task: tn.MT.Tasks[0], WarmStarted: warmed}
}

// tuneWithJournal runs one journaled operator tuning job into a buffer.
func tuneWithJournal(t *testing.T, workers, budget int, warm *tunelog.Database) (opRun, []byte) {
	t.Helper()
	var buf bytes.Buffer
	jr := tunelog.NewJournal(&buf)
	res := tuneOperator(t, workload.GEMM("g", 1, 128, 128, 128), hardware.CPUXeon6226R(), "harl", budget, 5, workers, warm, jr)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func TestOperatorJournalWorkerInvariance(t *testing.T) {
	// The journal is part of the determinism contract: workers=1 and
	// workers=8 must write byte-identical record sequences.
	_, j1 := tuneWithJournal(t, 1, 64, nil)
	_, j8 := tuneWithJournal(t, 8, 64, nil)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("operator journals diverged between workers=1 and workers=8:\n%s\nvs\n%s", j1, j8)
	}
	if len(j1) == 0 {
		t.Fatal("journal empty")
	}
}

func TestOperatorJournalMatchesTrials(t *testing.T) {
	res, j := tuneWithJournal(t, 1, 48, nil)
	db := tunelog.NewDatabase()
	if err := db.Load(bytes.NewReader(j)); err != nil {
		t.Fatal(err)
	}
	if db.Size() != res.Task.Trials {
		t.Fatalf("journal has %d records for %d trials", db.Size(), res.Task.Trials)
	}
	recs := db.Records()
	for i, r := range recs {
		if r.Trial != i+1 {
			t.Fatalf("record %d carries trial index %d", i, r.Trial)
		}
		if r.Scheduler != "harl" || r.Target != "cpu-xeon6226r" || r.Seed != 5 {
			t.Fatalf("record metadata %+v", r)
		}
	}
	// The best journal record must agree with the task's best measurement.
	best, ok := db.Best(recs[0].Workload, recs[0].Target)
	if !ok || best.ExecSec != res.Task.BestExec {
		t.Fatalf("journal best %v vs task best %v", best.ExecSec, res.Task.BestExec)
	}
}

func TestWarmStartRecoversBestExactly(t *testing.T) {
	// Tune with a journal, then warm-start a fresh run with budget 0: the
	// prior best must come back byte-identical (steps) with equal exec time,
	// without a single new measurement.
	res1, j := tuneWithJournal(t, 1, 64, nil)
	db := tunelog.NewDatabase()
	if err := db.Load(bytes.NewReader(j)); err != nil {
		t.Fatal(err)
	}
	wantSteps := res1.Task.Best.MarshalSteps()

	res2, j2 := tuneWithJournal(t, 1, 0, db)
	if !res2.WarmStarted {
		t.Fatal("warm start missed the cached record")
	}
	if res2.Task.Trials != 0 {
		t.Fatalf("replay run measured %d trials", res2.Task.Trials)
	}
	if len(j2) != 0 {
		t.Fatalf("replay run journaled new records: %s", j2)
	}
	if got := res2.Task.Best.MarshalSteps(); got != wantSteps {
		t.Fatalf("recovered steps %q want %q", got, wantSteps)
	}
	if res2.Task.BestExec != res1.Task.BestExec {
		t.Fatalf("recovered exec %v want %v", res2.Task.BestExec, res1.Task.BestExec)
	}
	if a, b := res2.Task.WeightedBestExec(), res1.Task.WeightedBestExec(); a != b {
		t.Fatalf("noise-free exec %v want %v", a, b)
	}
}

func TestWarmStartNeverRemeasuresCachedBest(t *testing.T) {
	res1, j := tuneWithJournal(t, 1, 64, nil)
	db := tunelog.NewDatabase()
	if err := db.Load(bytes.NewReader(j)); err != nil {
		t.Fatal(err)
	}
	wantSteps := res1.Task.Best.MarshalSteps()

	// Continue tuning from the cache with a real budget: the cached best is
	// marked measured, so it must never be re-measured (and the final best
	// can only be equal or better).
	res2, j2 := tuneWithJournal(t, 1, 64, db)
	if !res2.WarmStarted {
		t.Fatal("warm start missed")
	}
	db2 := tunelog.NewDatabase()
	if err := db2.Load(bytes.NewReader(j2)); err != nil {
		t.Fatal(err)
	}
	for _, r := range db2.Records() {
		if r.Steps == wantSteps {
			t.Fatalf("cached best was re-measured: %+v", r)
		}
	}
	if res2.Task.BestExec > res1.Task.BestExec {
		t.Fatalf("warm-started run regressed: %v > %v", res2.Task.BestExec, res1.Task.BestExec)
	}
}

func TestWarmStartIgnoresForeignRecords(t *testing.T) {
	// A log of a different workload or target must not seed the task.
	_, j := tuneWithJournal(t, 1, 48, nil)
	db := tunelog.NewDatabase()
	if err := db.Load(bytes.NewReader(j)); err != nil {
		t.Fatal(err)
	}
	other := workload.GEMM("other", 1, 64, 64, 64)
	res := tuneOperator(t, other, hardware.CPUXeon6226R(), "random", 16, 1, 1, db, nil)
	if res.WarmStarted {
		t.Fatal("foreign record must not warm-start a different workload")
	}
	gpu := tuneOperator(t, workload.GEMM("g", 1, 128, 128, 128), hardware.ByName("gpu"), "random", 16, 1, 1, db, nil)
	if gpu.WarmStarted {
		t.Fatal("cpu record must not warm-start a gpu run")
	}
}

func TestParallelNetworkJournalWorkerInvariance(t *testing.T) {
	// The MultiTuner fans records in at wave barriers in selection order, so
	// the journal must be byte-identical for every worker count.
	run := func(workers int) []byte {
		net := workload.BERT(1)
		pnt, err := NewParallelNetworkTuner(net, hardware.CPUXeon6226R(), "harl", 16, 3, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		jr := tunelog.NewJournal(&buf)
		pnt.AttachJournal(jr, 3)
		pnt.RunCtx(context.Background(), 330)
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	j1, j8 := run(1), run(8)
	if len(j1) == 0 {
		t.Fatal("network journal empty")
	}
	if !bytes.Equal(j1, j8) {
		t.Fatal("network journals diverged between workers=1 and workers=8")
	}
}

func TestNetworkTunerJournalAndWarmStart(t *testing.T) {
	net := workload.BERT(1)
	plat := hardware.CPUXeon6226R()
	nt, err := NewSequentialNetworkTuner(net, plat, "harl", 16, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jr := tunelog.NewJournal(&buf)
	nt.AttachJournal(jr, 3)
	nt.RunCtx(context.Background(), 330)
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	db := tunelog.NewDatabase()
	if err := db.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if db.Size() != nt.Trials() {
		t.Fatalf("journal has %d records for %d trials", db.Size(), nt.Trials())
	}

	// A fresh tuner warm-starts every subgraph the log covered, and each
	// seeded task reproduces the logged best schedule exactly.
	nt2, err := NewParallelNetworkTuner(net, plat, "harl", 16, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	warmed := 0
	for _, task := range nt2.MT.Tasks {
		if task.WarmStartFrom(db) {
			warmed++
		}
	}
	if warmed == 0 {
		t.Fatal("no tasks warm-started")
	}
	for _, task := range nt2.MT.Tasks {
		rec, ok := db.Best(task.Graph.Fingerprint(), plat.Name)
		if !ok {
			continue
		}
		if task.Best == nil {
			t.Fatalf("task %s not seeded despite cached record", task.Graph.Name)
		}
		if got := task.Best.MarshalSteps(); got != rec.Steps {
			t.Fatalf("task %s seeded with %q want %q", task.Graph.Name, got, rec.Steps)
		}
		if task.BestExec != rec.ExecSec {
			t.Fatalf("task %s exec %v want %v", task.Graph.Name, task.BestExec, rec.ExecSec)
		}
	}
}
