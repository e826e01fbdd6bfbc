package search

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"harl/internal/schedule"
	"harl/internal/workload"
)

func TestParallelPoolRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		n := 257
		counts := make([]int64, n)
		NewParallelPool(workers).Run(n, func(i int) {
			atomic.AddInt64(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestParallelPoolNilAndEdgeCases(t *testing.T) {
	var p *ParallelPool
	if p.Workers() != 1 {
		t.Fatalf("nil pool workers %d", p.Workers())
	}
	ran := 0
	p.Run(3, func(i int) { ran++ }) // inline: ordered, same goroutine
	if ran != 3 {
		t.Fatalf("nil pool ran %d jobs", ran)
	}
	p.Run(0, func(i int) { t.Fatal("n=0 must not run jobs") })
	NewParallelPool(4).Run(-1, func(i int) { t.Fatal("n<0 must not run jobs") })
	if NewParallelPool(0).Workers() != runtime.NumCPU() {
		t.Fatal("workers<=0 must select NumCPU")
	}
}

// The pool's contract: per-index outputs are byte-identical for every worker
// count, because each job writes only its own slot.
func TestParallelPoolDeterministicOutputs(t *testing.T) {
	n := 500
	f := func(i int) float64 { return math.Sqrt(float64(i)) * math.Log(float64(i)+2) }
	ref := make([]float64, n)
	NewParallelPool(1).Run(n, func(i int) { ref[i] = f(i) })
	for _, workers := range []int{2, 4, 16} {
		got := make([]float64, n)
		NewParallelPool(workers).Run(n, func(i int) { got[i] = f(i) })
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: slot %d diverged", workers, i)
			}
		}
	}
}

// MeasureBatch with a many-worker pool must reproduce the serial path bit for
// bit: execution times, logs, cost accounting and the chosen best.
func TestMeasureBatchParallelMatchesSerial(t *testing.T) {
	sg := workload.GEMM("g", 1, 256, 256, 256)
	mk := func(workers int) (*Task, []float64) {
		task, _ := newTestTask(t, sg, 11)
		if workers != 1 {
			task.Pool = NewParallelPool(workers)
		}
		var batch []*schedule.Schedule
		for i := 0; i < 40; i++ {
			batch = append(batch, task.RandomSchedule(task.Sketches[i%len(task.Sketches)]))
		}
		return task, task.MeasureBatch(batch)
	}
	serialTask, serialOut := mk(1)
	parTask, parOut := mk(8)
	for i := range serialOut {
		sv, pv := serialOut[i], parOut[i]
		if sv != pv && !(math.IsNaN(sv) && math.IsNaN(pv)) {
			t.Fatalf("exec %d: serial %v parallel %v", i, sv, pv)
		}
	}
	if serialTask.BestExec != parTask.BestExec || serialTask.Best.Key() != parTask.Best.Key() {
		t.Fatal("best schedule diverged across worker counts")
	}
	if serialTask.Meas.CostSec() != parTask.Meas.CostSec() {
		t.Fatal("cost accounting diverged across worker counts")
	}
	for i, v := range serialTask.BestLog {
		if parTask.BestLog[i] != v {
			t.Fatalf("best log %d diverged", i)
		}
	}
}

// ScoreBatch must match element-wise Score (and charge the same query cost).
func TestScoreBatchMatchesScore(t *testing.T) {
	task, _ := newTestTask(t, workload.GEMM("g", 1, 128, 128, 128), 5)
	var batch []*schedule.Schedule
	for i := 0; i < 24; i++ {
		batch = append(batch, task.RandomSchedule(task.Sketches[0]))
	}
	// Untrained model: all ones, no cost charged.
	before := task.Meas.CostSec()
	for _, s := range task.ScoreBatch(batch) {
		if s != 1 {
			t.Fatal("untrained ScoreBatch must return 1s")
		}
	}
	if task.Meas.CostSec() != before {
		t.Fatal("untrained ScoreBatch must not charge queries")
	}
	task.MeasureBatch(batch)
	task.Pool = NewParallelPool(8)
	var probes []*schedule.Schedule
	for i := 0; i < 32; i++ {
		probes = append(probes, task.RandomSchedule(task.Sketches[0]))
	}
	got := task.ScoreBatch(probes)
	for i, s := range probes {
		if want := task.FittedCost().Throughput(s.Features()); got[i] != want {
			t.Fatalf("score %d: got %v want %v", i, got[i], want)
		}
	}
}
