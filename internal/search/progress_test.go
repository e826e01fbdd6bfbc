package search

import (
	"context"
	"reflect"
	"testing"

	"harl/internal/hardware"
)

// collectMultiProgress runs a MultiTuner over the BERT task set with the
// given worker count and returns its progress event stream.
func collectMultiProgress(t *testing.T, workers int, budget int) []Progress {
	t.Helper()
	cfg := DefaultMultiTunerConfig()
	cfg.RoundTrials = 8
	cfg.Workers = workers
	tasks := NewTaskSet(bertGraphs(t), hardware.CPUXeon6226R(), 7)
	mt := NewMultiTuner(tasks, func() Engine { return NewRandom() }, cfg)
	var events []Progress
	mt.OnProgress = func(p Progress) { events = append(events, p) }
	mt.RunCtx(context.Background(), budget)
	return events
}

// TestMultiTunerProgressWorkerInvariant pins the tentpole's determinism
// contract at the source: the progress event stream — every field, in order —
// is identical for workers=1 and workers=4.
func TestMultiTunerProgressWorkerInvariant(t *testing.T) {
	one := collectMultiProgress(t, 1, 160)
	four := collectMultiProgress(t, 4, 160)
	if len(one) == 0 {
		t.Fatal("no progress events emitted")
	}
	if !reflect.DeepEqual(one, four) {
		t.Fatalf("progress streams diverge across worker counts:\nw1: %+v\nw4: %+v", one, four)
	}
}

// TestMultiTunerProgressCommitted checks every event reads committed,
// consistent state: trials are cumulative and monotone per task, allocations
// count the task's waves, and the wave index matches the barrier it was
// emitted at.
func TestMultiTunerProgressCommitted(t *testing.T) {
	events := collectMultiProgress(t, 3, 160)
	lastTaskTrials := map[int]int{}
	lastTotal := 0
	waves := map[int]bool{}
	for i, e := range events {
		if e.TaskTrials < lastTaskTrials[e.Task] {
			t.Fatalf("event %d: task %d trials went backwards (%d < %d)", i, e.Task, e.TaskTrials, lastTaskTrials[e.Task])
		}
		lastTaskTrials[e.Task] = e.TaskTrials
		if e.TotalTrials < lastTotal {
			t.Fatalf("event %d: total trials went backwards (%d < %d)", i, e.TotalTrials, lastTotal)
		}
		lastTotal = e.TotalTrials
		if e.TaskTrials > e.TotalTrials {
			t.Fatalf("event %d: task trials %d exceed total %d", i, e.TaskTrials, e.TotalTrials)
		}
		if e.Allocation < 1 {
			t.Fatalf("event %d: allocation %d < 1 after a wave", i, e.Allocation)
		}
		if e.CostSec <= 0 {
			t.Fatalf("event %d: no search cost accumulated", i)
		}
		waves[e.Wave] = true
	}
	for w := 0; w < len(waves); w++ {
		if !waves[w] {
			t.Fatalf("wave %d missing from the event stream (got %d distinct waves)", w, len(waves))
		}
	}
}

// TestTuneSessionProgress drives the one-task case of the wave loop and checks
// one event lands per round with the task's committed best.
func TestTuneSessionProgress(t *testing.T) {
	graphs := bertGraphs(t)
	tasks := NewTaskSet(graphs[:1], hardware.CPUXeon6226R(), 5)
	task := tasks[0]
	var events []Progress
	cancelled := TuneSession(context.Background(), NewRandom(), task, 64, 16, func(p Progress) {
		events = append(events, p)
	})
	if cancelled {
		t.Fatal("uncancelled run reported cancelled")
	}
	if len(events) != 4 {
		t.Fatalf("got %d events for 64 trials at 16 per round, want 4", len(events))
	}
	for i, e := range events {
		if e.Wave != i || e.Allocation != i+1 {
			t.Fatalf("event %d: wave=%d allocation=%d", i, e.Wave, e.Allocation)
		}
		if e.TaskTrials != e.TotalTrials {
			t.Fatalf("operator event %d: task trials %d != total %d", i, e.TaskTrials, e.TotalTrials)
		}
		if e.BestExec != e.RunBest {
			t.Fatalf("operator event %d: best %g != run objective %g", i, e.BestExec, e.RunBest)
		}
	}
	last := events[len(events)-1]
	if last.TaskTrials != task.Trials || last.BestExec != task.BestExec {
		t.Fatalf("final event %+v does not match committed task state (trials=%d best=%g)",
			last, task.Trials, task.BestExec)
	}
}
