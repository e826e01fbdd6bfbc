// Package service turns the HARL tuner into a long-running service: a job
// queue whose background workers drain tuning requests through cancellable
// sessions, with request coalescing — concurrent identical requests
// (singleflight on the workload fingerprint + target + scheduler key) share
// one search instead of racing N copies of it — and a registry in front so
// already-answered requests never reach the queue at all. The HTTP surface
// over this queue lives in http.go; the harl-serve daemon is a thin main
// around the two.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"harl"
)

// errShuttingDown is returned by Submit once the queue has begun draining;
// the HTTP layer maps it to 503 shutting_down (a retryable condition, unlike
// a 400).
var errShuttingDown = errors.New("service: queue is shut down")

// JobState is the lifecycle of one tuning job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Request describes one tuning request — the service-level mirror of the
// harl-tune CLI surface. Either Op+Shape or Network must be set.
type Request struct {
	// Op and Shape select an operator workload ("gemm", "1024,1024,1024");
	// Network selects an end-to-end network ("bert", "resnet50",
	// "mobilenetv2") instead.
	Op      string `json:"op,omitempty"`
	Shape   string `json:"shape,omitempty"`
	Network string `json:"network,omitempty"`
	Batch   int    `json:"batch,omitempty"`
	// Target and Scheduler default to "cpu" and "harl".
	Target    string `json:"target,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	// Trials is the measurement budget (0 selects the library default).
	Trials int `json:"trials,omitempty"`
	// Seed defaults to 1; Workers sizes the session's worker pool.
	Seed    uint64 `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// PlateauWindow and PlateauMinImprovement configure the session's
	// adaptive early stop (harl.Plateau): a positive window watches the
	// convergence trajectory and ends the search once it flatlines. Zero
	// selects the service's default policy; a negative window disables the
	// default for this request.
	PlateauWindow         int     `json:"plateau_window,omitempty"`
	PlateauMinImprovement float64 `json:"plateau_min_improvement,omitempty"`
}

// normalize fills the defaulted fields so that requests equal in effect are
// equal as values — the precondition for the coalescing key. Trials mirrors
// harl.Options.withDefaults (0 selects 320), so "trials omitted" and
// "trials":320 coalesce into one search. Workers stays as given and out of
// the key: it sizes the session's pool and never changes the result.
func (r Request) normalize() Request {
	// Only an omitted batch defaults; a negative batch is preserved so
	// validation can reject it (clamping would silently answer for batch 1).
	if r.Batch == 0 {
		r.Batch = 1
	}
	if r.Target == "" {
		r.Target = "cpu"
	}
	if r.Scheduler == "" {
		r.Scheduler = "harl"
	}
	if r.Trials == 0 {
		r.Trials = 320
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// Outcome summarizes a finished tuning job — the service-level mirror of
// harl.Result / harl.NetworkResult.
type Outcome struct {
	Workload    string  `json:"workload"`
	Target      string  `json:"target"`
	Scheduler   string  `json:"scheduler"`
	ExecSeconds float64 `json:"exec_seconds"`
	GFLOPS      float64 `json:"gflops,omitempty"`
	// Trials is the measured-trial count (the budget the search spent).
	// Measured repeats it: the field is part of the v1 wire format.
	Trials        int     `json:"trials"`
	Measured      int     `json:"measured"`
	SearchSeconds float64 `json:"search_seconds"`
	BestSchedule  string  `json:"best_schedule,omitempty"`
	// CacheHit reports the result came from the registry without measuring;
	// Cancelled that the session was cut short (partial best);
	// PlateauStopped that the plateau policy ended the search early — the
	// job still counts as done, with its (published) best.
	CacheHit       bool `json:"cache_hit,omitempty"`
	Cancelled      bool `json:"cancelled,omitempty"`
	PlateauStopped bool `json:"plateau_stopped,omitempty"`
}

// Tuner executes one tuning request as a cancellable session. The production
// implementation (HarlTuner) drives the harl public API with a shared
// registry; tests substitute controllable fakes.
type Tuner interface {
	// Key returns the coalescing identity of the request: requests with equal
	// keys are answered by one search. It also validates the request — an
	// unresolvable workload, target or scheduler is rejected here, before
	// anything is enqueued.
	Key(req Request) (string, error)
	// Tune runs the session to completion or cancellation. progress (never
	// nil) receives one event per committed round/wave, in commit order.
	Tune(ctx context.Context, req Request, progress func(harl.ProgressEvent)) (Outcome, error)
}

// Job is one queued/running/finished tuning request. Fields are snapshots
// guarded by the queue's lock; use Queue.Snapshot for a consistent copy.
type Job struct {
	ID      string   `json:"id"`
	Key     string   `json:"key"`
	State   JobState `json:"state"`
	Request Request  `json:"request"`
	Outcome *Outcome `json:"outcome,omitempty"`
	Error   string   `json:"error,omitempty"`
	// Coalesced counts how many identical requests this job answered beyond
	// the first — the singleflight savings.
	Coalesced int `json:"coalesced"`

	// done closes when the job leaves the queue. It is queue-internal:
	// callers only ever hold value snapshots (Submit, Get), whose channel is
	// nilled — observe completion by polling Get or by tailing the progress
	// stream, whose done frame is the terminal transition.
	done     chan struct{}
	cancel   context.CancelFunc
	progress *progressLog
}

// Metrics are the queue's monotonic counters plus current depths, rendered
// by the /metrics endpoint.
type Metrics struct {
	Submitted int `json:"submitted"`
	Coalesced int `json:"coalesced"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// PlateauStopped counts jobs whose search the plateau policy ended early
	// (a subset of Done).
	PlateauStopped int `json:"plateau_stopped"`
	// RegistryHits / RegistryMisses count resolve-first outcomes across the
	// HTTP surface and finished jobs; RegistryErrors counts lookups the
	// registry storage failed to serve (neither hit nor miss).
	RegistryHits   int `json:"registry_hits"`
	RegistryMisses int `json:"registry_misses"`
	RegistryErrors int `json:"registry_errors"`
	// TrialsMeasured sums the schedules finished (done or cancelled) jobs
	// measured — the compute the service actually spent.
	TrialsMeasured int `json:"trials_measured"`
	QueueDepth     int `json:"queue_depth"`
	Running        int `json:"running"`
}

// maxRetainedJobs bounds how many finished (done/failed/cancelled) jobs the
// queue keeps for /v1/jobs queries; beyond it the oldest finished jobs are
// evicted, so a long-lived daemon's memory and job-listing size stay flat.
// Queued and running jobs are never evicted.
const maxRetainedJobs = 1024

// Queue is the coalescing tuning-job queue. Submissions with an identical
// key attach to the in-flight job for that key; background workers drain the
// rest in FIFO order through the Tuner.
type Queue struct {
	tuner Tuner

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job // by ID, all states
	inflight map[string]*Job // by Key, queued or running only
	pending  []*Job
	order    []string // job IDs in submission order, for listing
	nextID   int
	closed   bool
	running  int
	terminal int // jobs in a finished state, for retention pruning
	retain   int // finished-job retention bound (maxRetainedJobs; tests lower it)
	m        Metrics

	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
}

// finishLocked marks a job's terminal transition: its done channel closes,
// its progress stream completes (tailing SSE subscribers drain and finish)
// and the retention bound is enforced. Caller holds the lock and has already
// set the final state.
func (q *Queue) finishLocked(j *Job) {
	close(j.done)
	j.progress.close()
	q.terminal++
	// Evict the oldest finished jobs down to the bound and stop there: the
	// walk ends at the entry that clears the excess (almost always the first)
	// and the tail keeps its order; queued and running jobs are stepped over.
	for i := 0; q.terminal > q.retain && i < len(q.order); {
		id := q.order[i]
		if s := q.jobs[id].State; s != StateDone && s != StateFailed && s != StateCancelled {
			i++
			continue
		}
		delete(q.jobs, id)
		q.terminal--
		q.order = append(q.order[:i], q.order[i+1:]...)
	}
}

// NewQueue starts a queue with the given worker count (minimum 1).
func NewQueue(tuner Tuner, workers int) *Queue {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		tuner:      tuner,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		retain:     maxRetainedJobs,
		rootCtx:    ctx,
		rootCancel: cancel,
	}
	q.cond = sync.NewCond(&q.mu)
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker()
	}
	return q
}

// Submit enqueues a tuning request, or — when an identical request is
// already queued or running — attaches to that job. It returns a snapshot of
// the job taken under the same lock hold that created (or found) it — so the
// caller always sees a populated job, even if it finishes and is
// retention-evicted before the caller looks again — and whether the request
// coalesced into an existing one.
func (q *Queue) Submit(req Request) (Job, bool, error) {
	req = req.normalize()
	key, err := q.tuner.Key(req)
	if err != nil {
		return Job{}, false, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, false, errShuttingDown
	}
	if j, ok := q.inflight[key]; ok {
		j.Coalesced++
		q.m.Coalesced++
		return snapshot(j), true, nil
	}
	q.nextID++
	j := &Job{
		ID:       fmt.Sprintf("j%d", q.nextID),
		Key:      key,
		State:    StateQueued,
		Request:  req,
		done:     make(chan struct{}),
		progress: newProgressLog(progressRingCap),
	}
	q.jobs[j.ID] = j
	q.order = append(q.order, j.ID)
	q.inflight[key] = j
	q.pending = append(q.pending, j)
	q.m.Submitted++
	q.cond.Signal()
	return snapshot(j), false, nil
}

// worker drains the pending list until shutdown.
func (q *Queue) worker() {
	defer q.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.closed && len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		j := q.pending[0]
		q.pending = q.pending[1:]
		ctx, cancel := context.WithCancel(q.rootCtx)
		j.State = StateRunning
		j.cancel = cancel
		q.running++
		q.mu.Unlock()

		out, err := q.runSession(ctx, j)
		cancel()

		q.mu.Lock()
		q.running--
		// Guarded removal: a cancelled job already left the map, and a fresh
		// job may have taken the key since — never evict a successor.
		if q.inflight[j.Key] == j {
			delete(q.inflight, j.Key)
		}
		switch {
		case err != nil:
			j.State = StateFailed
			j.Error = err.Error()
			q.m.Failed++
		case out.Cancelled:
			j.State = StateCancelled
			j.Outcome = &out
			q.m.Cancelled++
			q.m.TrialsMeasured += out.Measured
		default:
			j.State = StateDone
			j.Outcome = &out
			q.m.Done++
			q.m.TrialsMeasured += out.Measured
			if out.PlateauStopped {
				q.m.PlateauStopped++
			}
			if out.CacheHit {
				// Rare but real: the registry filled in (another session
				// published) between submission and execution. The miss was
				// already counted at submit time, so only the hit folds in.
				q.m.RegistryHits++
			}
		}
		q.finishLocked(j)
		q.mu.Unlock()
	}
}

// runSession executes one tuning session, converting a panic into a job
// failure: one bad request must cost its own job, not a worker goroutine
// (an unrecovered panic would wedge the job in "running" forever, block its
// coalesced waiters, and pin its key in the inflight map). Progress events
// the session commits land in the job's ring buffer, where SSE subscribers
// replay and tail them.
func (q *Queue) runSession(ctx context.Context, j *Job) (out Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("service: tuning session panicked: %v", p)
		}
	}()
	return q.tuner.Tune(ctx, j.Request, j.progress.publish)
}

// Cancel cancels a job: a queued job is removed immediately, a running job's
// session context is cancelled (the session checkpoints and returns its
// partial best). It reports whether the job existed and was still
// cancellable.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.State == StateDone || j.State == StateFailed || j.State == StateCancelled {
		q.mu.Unlock()
		return false
	}
	if j.State == StateQueued {
		for i, p := range q.pending {
			if p == j {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		delete(q.inflight, j.Key)
		j.State = StateCancelled
		q.m.Cancelled++
		q.finishLocked(j)
		q.mu.Unlock()
		return true
	}
	// Running: cancellation is asynchronous — the worker finalizes the job
	// when the session returns its checkpointed partial result. The key
	// leaves the inflight map NOW, so new identical requests start a fresh
	// search instead of coalescing into a job that will only ever deliver a
	// cancelled partial.
	delete(q.inflight, j.Key)
	cancel := j.cancel
	q.mu.Unlock()
	cancel()
	return true
}

// Get returns a consistent snapshot of the job, if it exists.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return snapshot(j), true
}

// Jobs returns snapshots of every job in submission order.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, snapshot(q.jobs[id]))
	}
	return out
}

// snapshot copies the job's shared fields under the queue lock.
func snapshot(j *Job) Job {
	c := *j
	if j.Outcome != nil {
		o := *j.Outcome
		c.Outcome = &o
	}
	c.done = nil
	c.cancel = nil
	c.progress = nil
	return c
}

// Progress returns the job's progress log — the replay-then-tail source the
// SSE endpoint streams from — if the job is still retained. The log outlives
// the job's terminal transition (subscribers holding it keep draining after
// retention eviction), but a new subscriber needs the job to still exist.
func (q *Queue) Progress(id string) (*progressLog, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return j.progress, true
}

// CountRegistryHit and CountRegistryMiss fold resolve-first outcomes that
// never became jobs (the HTTP fast path) into the queue's hit-rate counters.
func (q *Queue) CountRegistryHit() {
	q.mu.Lock()
	q.m.RegistryHits++
	q.mu.Unlock()
}

// CountRegistryMiss counts a resolve miss on the HTTP surface.
func (q *Queue) CountRegistryMiss() {
	q.mu.Lock()
	q.m.RegistryMisses++
	q.mu.Unlock()
}

// CountRegistryError counts a lookup the registry storage failed to serve.
func (q *Queue) CountRegistryError() {
	q.mu.Lock()
	q.m.RegistryErrors++
	q.mu.Unlock()
}

// Metrics returns a snapshot of the counters plus current depths.
func (q *Queue) Metrics() Metrics {
	q.mu.Lock()
	defer q.mu.Unlock()
	m := q.m
	m.QueueDepth = len(q.pending)
	m.Running = q.running
	return m
}

// Shutdown drains the queue: intake closes, still-queued jobs are cancelled,
// running sessions receive a context cancellation (they checkpoint — journal
// flushed, model saved — and return their partial bests) and the workers are
// awaited. It is idempotent.
func (q *Queue) Shutdown() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	for _, j := range q.pending {
		delete(q.inflight, j.Key)
		j.State = StateCancelled
		q.m.Cancelled++
		q.finishLocked(j)
	}
	q.pending = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	q.rootCancel()
	q.wg.Wait()
}
