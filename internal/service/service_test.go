package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"harl"
)

// fakeTuner is a controllable Tuner: it blocks each Tune call until released
// (or the context is cancelled) and counts how many searches actually ran.
// preEvents are published into the job's progress stream before the tuner
// blocks, postEvents after it is released — the replay and tail halves the
// SSE tests exercise.
type fakeTuner struct {
	mu         sync.Mutex
	runs       int
	started    chan string   // receives the key each time a Tune begins
	release    chan struct{} // each receive lets one Tune finish
	preEvents  []harl.ProgressEvent
	postEvents []harl.ProgressEvent
	outcome    *Outcome // optional override of the success outcome
}

func newFakeTuner() *fakeTuner {
	return &fakeTuner{started: make(chan string, 64), release: make(chan struct{})}
}

func (f *fakeTuner) Key(req Request) (string, error) {
	if req.Op == "" && req.Network == "" {
		return "", fmt.Errorf("fake: empty request")
	}
	return fmt.Sprintf("%s|%s|%s|%s|t%d|s%d", req.Op, req.Shape, req.Network, req.Target, req.Trials, req.Seed), nil
}

func (f *fakeTuner) Tune(ctx context.Context, req Request, progress func(harl.ProgressEvent)) (Outcome, error) {
	f.mu.Lock()
	f.runs++
	pre, post, oc := f.preEvents, f.postEvents, f.outcome
	f.mu.Unlock()
	for _, e := range pre {
		progress(e)
	}
	f.started <- req.Op + req.Network
	select {
	case <-f.release:
		for _, e := range post {
			progress(e)
		}
		if oc != nil {
			o := *oc
			o.Workload = req.Op + req.Network
			o.Target = req.Target
			return o, nil
		}
		return Outcome{Workload: req.Op + req.Network, Target: req.Target, Trials: 16}, nil
	case <-ctx.Done():
		return Outcome{Workload: req.Op + req.Network, Target: req.Target, Trials: 3, Cancelled: true}, nil
	}
}

func (f *fakeTuner) Runs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs
}

func waitState(t *testing.T, q *Queue, id string, want JobState) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := q.Get(id); ok && j.State == want {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	j, _ := q.Get(id)
	t.Fatalf("job %s never reached %s (state %s)", id, want, j.State)
	return Job{}
}

// TestCoalescingSingleflight is the service-layer seam test: N concurrent
// identical submissions must yield exactly one job and one search.
func TestCoalescingSingleflight(t *testing.T) {
	ft := newFakeTuner()
	q := NewQueue(ft, 4)
	defer q.Shutdown()

	req := Request{Op: "gemm", Shape: "64,64,64", Target: "cpu"}
	const n = 16
	jobs := make([]Job, n)
	coalesced := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, c, err := q.Submit(req)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			jobs[i] = j
			if c {
				coalesced++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, j := range jobs[1:] {
		if j.ID != jobs[0].ID {
			t.Fatalf("identical requests produced distinct jobs %s and %s", jobs[0].ID, j.ID)
		}
	}
	if coalesced != n-1 {
		t.Fatalf("coalesced %d of %d submissions, want %d", coalesced, n, n-1)
	}
	// A different request must NOT coalesce.
	other, c, err := q.Submit(Request{Op: "gemm", Shape: "128,128,128", Target: "cpu"})
	if err != nil || c {
		t.Fatalf("distinct request coalesced (err=%v)", err)
	}
	<-ft.started
	<-ft.started
	close(ft.release)
	waitState(t, q, jobs[0].ID, StateDone)
	waitState(t, q, other.ID, StateDone)
	if got := ft.Runs(); got != 2 {
		t.Fatalf("tuner ran %d searches, want 2 (one per distinct request)", got)
	}
	m := q.Metrics()
	if m.Submitted != 2 || m.Coalesced != n-1 || m.Done != 2 {
		t.Fatalf("metrics = %+v", m)
	}
	// Once finished, the key is no longer in flight: a re-submit starts fresh.
	j2, c, err := q.Submit(req)
	if err != nil || c {
		t.Fatalf("re-submit after completion coalesced (err=%v)", err)
	}
	if j2.ID == jobs[0].ID {
		t.Fatal("re-submit reused the finished job")
	}
	waitState(t, q, j2.ID, StateDone)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	ft := newFakeTuner()
	q := NewQueue(ft, 1) // single worker so the second job stays queued
	defer q.Shutdown()

	running, _, err := q.Submit(Request{Op: "a", Target: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	<-ft.started
	queued, _, err := q.Submit(Request{Op: "b", Target: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the queued job: immediate, no search ever runs for it.
	if !q.Cancel(queued.ID) {
		t.Fatal("cancel queued failed")
	}
	waitState(t, q, queued.ID, StateCancelled)
	// Cancel the running job: the session context fires and the partial
	// outcome is kept.
	if !q.Cancel(running.ID) {
		t.Fatal("cancel running failed")
	}
	j := waitState(t, q, running.ID, StateCancelled)
	if j.Outcome == nil || !j.Outcome.Cancelled || j.Outcome.Trials != 3 {
		t.Fatalf("cancelled outcome = %+v, want partial trials", j.Outcome)
	}
	if ft.Runs() != 1 {
		t.Fatalf("tuner ran %d searches, want 1", ft.Runs())
	}
	if !waitCancelledCount(q, 2) {
		t.Fatalf("metrics cancelled = %d, want 2", q.Metrics().Cancelled)
	}
	if q.Cancel(running.ID) {
		t.Fatal("cancelling a finished job must report false")
	}
}

func waitCancelledCount(q *Queue, want int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if q.Metrics().Cancelled == want {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func TestShutdownCancelsEverything(t *testing.T) {
	ft := newFakeTuner()
	q := NewQueue(ft, 1)
	running, _, err := q.Submit(Request{Op: "a", Target: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	<-ft.started
	queued, _, err := q.Submit(Request{Op: "b", Target: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	q.Shutdown()
	if j, _ := q.Get(queued.ID); j.State != StateCancelled {
		t.Fatalf("queued job state after shutdown = %s", j.State)
	}
	if j, _ := q.Get(running.ID); j.State != StateCancelled || j.Outcome == nil {
		t.Fatalf("running job after shutdown = %+v", j)
	}
	if _, _, err := q.Submit(Request{Op: "c", Target: "cpu"}); err == nil {
		t.Fatal("submit after shutdown must fail")
	}
}

func TestSubmitRejectsBadRequest(t *testing.T) {
	q := NewQueue(newFakeTuner(), 1)
	defer q.Shutdown()
	if _, _, err := q.Submit(Request{}); err == nil {
		t.Fatal("empty request must be rejected at submit")
	}
}

// TestExhaustedSpaceJobFreesWorker drives the real tuner: a job whose whole
// schedule space is smaller than the default 320-trial budget, with the
// plateau stop opted out, ends when the space is measured out and hands its
// worker to the next job. (It used to spin until someone cancelled it.) Every
// finished job, operator or network, reports measured == trials: the
// benchmark's fleet check compares dispatched trials to outcome.measured.
func TestExhaustedSpaceJobFreesWorker(t *testing.T) {
	q := NewQueue(&HarlTuner{}, 1)
	defer q.Shutdown()
	var tiny Request
	if err := json.Unmarshal([]byte(`{"op":"gemm","shape":"1,1,1","scheduler":"random","plateau_window":-1}`), &tiny); err != nil {
		t.Fatal(err)
	}
	snap, _, err := q.Submit(tiny)
	if err != nil {
		t.Fatal(err)
	}
	j := waitState(t, q, snap.ID, StateDone)
	if j.Outcome == nil || j.Outcome.Trials == 0 || j.Outcome.Trials >= 320 || j.Outcome.Cancelled || j.Outcome.PlateauStopped {
		t.Fatalf("outcome = %+v, want an uncancelled run of fewer than 320 trials", j.Outcome)
	}
	next, _, err := q.Submit(Request{Op: "gemm", Shape: "64,64,64", Scheduler: "random", Trials: 16})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitState(t, q, next.ID, StateDone); j.Outcome == nil || j.Outcome.Trials != 16 || j.Outcome.Measured != 16 {
		t.Fatalf("second job outcome = %+v", j.Outcome)
	}
	if j.Outcome.Measured != j.Outcome.Trials {
		t.Fatalf("first job measured %d of %d trials", j.Outcome.Measured, j.Outcome.Trials)
	}
	net, _, err := q.Submit(Request{Network: "bert", Scheduler: "random", Trials: 24, PlateauWindow: -1})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitState(t, q, net.ID, StateDone); j.Outcome == nil || j.Outcome.Trials != 24 || j.Outcome.Measured != 24 {
		t.Fatalf("network job outcome = %+v", j.Outcome)
	}
}
