package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"harl/internal/core"
	"harl/internal/costmodel"
	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/tunelog"
	"harl/internal/xrand"
)

// span is one timed call into a layer: its name, when it ran, the span that
// caused it and the session (or request) it belongs to. N carries the count
// that crossed the boundary with it (rows predicted, trials measured, bytes).
type span struct {
	Name    string
	Parent  int
	Session int
	Start   time.Duration
	End     time.Duration
	N       int
}

// recorder keeps spans in memory until the run ends. All spans are recorded
// from the benchmark's own files, around the calls into each layer; the
// program under test carries none.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id; parent is -1 for a root.
func (r *recorder) begin(name string, parent, session int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Session: session, Start: now, End: -1})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id, n int) {
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End, r.spans[id].N = now, n
	r.mu.Unlock()
}

// bump adds one to a span's count.
func (r *recorder) bump(id int) {
	r.mu.Lock()
	r.spans[id].N++
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, parent, session int, start, end time.Time, n int) int {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Session: session, Start: start.Sub(r.t0), End: end.Sub(r.t0), N: n})
	id := len(r.spans) - 1
	r.mu.Unlock()
	return id
}

// layerStat is one span name's aggregate.
type layerStat struct {
	calls   int
	n       int
	total   float64 // seconds busy
	self    float64 // total minus the time its direct children cover
	seconds []float64
}

// stats aggregates the finished spans by name. A span's self time is its
// duration minus its direct children's durations; children of one span run one
// after another on its goroutine, so their durations do not overlap.
func (r *recorder) stats() map[string]*layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 && s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range r.spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := (s.End - s.Start).Seconds()
		st.calls++
		st.n += s.N
		st.total += d
		st.self += d - child[i].Seconds()
		st.seconds = append(st.seconds, d)
	}
	return out
}

// stat returns the aggregate for name, or an empty one.
func stat(m map[string]*layerStat, name string) *layerStat {
	if s := m[name]; s != nil {
		return s
	}
	return &layerStat{}
}

// sessionLayerMetrics fills the per-layer metrics every traced session yields,
// whichever workload assembled it: rounds, cost model, journal, PPO updates.
func sessionLayerMetrics(m map[string]float64, ls map[string]*layerStat, updates int) {
	round := stat(ls, "search.round")
	m["search.round.calls"] = float64(round.calls)
	m["search.round.total_s"] = round.total
	m["search.round.self_s"] = round.self
	m["rl.train.calls"] = float64(updates)
	refit, predict := stat(ls, "costmodel.refit"), stat(ls, "costmodel.predict")
	m["costmodel.refit.calls"] = float64(refit.calls)
	m["costmodel.refit.total_s"] = refit.total
	m["costmodel.predict.calls"] = float64(predict.calls)
	m["costmodel.predict.rows"] = float64(predict.n)
	m["costmodel.predict.total_s"] = predict.total
	m["costmodel.add.calls"] = float64(stat(ls, "costmodel.add").calls)
	app := stat(ls, "tunelog.append")
	m["tunelog.append.calls"] = float64(app.calls)
	m["tunelog.append.total_s"] = app.total
}

// traceFile is the on-disk form of a traced pass: names are interned and each
// span is [id, parent, name index, session, start ns, end ns, n].
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Unit     string     `json:"unit"`
	Columns  []string   `json:"columns"`
	Names    []string   `json:"names"`
	Spans    [][7]int64 `json:"spans"`
}

func (r *recorder) write(path, workload string, seed uint64) error {
	r.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Unit: "ns",
		Columns: []string{"id", "parent", "name", "session", "start", "end", "n"}}
	idx := map[string]int{}
	for i, s := range r.spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(tf.Names)
			idx[s.Name] = k
			tf.Names = append(tf.Names, s.Name)
		}
		tf.Spans = append(tf.Spans, [7]int64{int64(i), int64(s.Parent), int64(k), int64(s.Session),
			s.Start.Nanoseconds(), s.End.Nanoseconds(), int64(s.N)})
	}
	r.mu.Unlock()
	return writeJSONCompact(path, tf)
}

// taskTrace is the tracing context of one task of one session: where its
// spans hang. cur is the task's open round span, or -1 between rounds, when
// spans hang off the session (or wave) span instead.
type taskTrace struct {
	rec     *recorder
	session int
	root    func() int // the enclosing session or wave span
	cur     int
}

func (t *taskTrace) parent() int {
	if t.cur >= 0 {
		return t.cur
	}
	return t.root()
}

// tracedCost wraps a task's cost model. It forwards the two optional
// interfaces the search layer type-asserts for (batch-into prediction and the
// parallel refit runner), so the wrapped task takes exactly the code paths the
// bare one does.
type tracedCost struct {
	costmodel.CostModel
	into costmodel.BatchInto
	pr   costmodel.ParallelRefitter
	tt   *taskTrace
}

func wrapCost(m costmodel.CostModel, tt *taskTrace) *tracedCost {
	c := &tracedCost{CostModel: m, tt: tt}
	c.into, _ = m.(costmodel.BatchInto)
	c.pr, _ = m.(costmodel.ParallelRefitter)
	return c
}

func (c *tracedCost) SetRunner(r costmodel.Runner) {
	if c.pr != nil {
		c.pr.SetRunner(r)
	}
}

func (c *tracedCost) Add(x []float64, y float64) {
	id := c.tt.rec.begin("costmodel.add", c.tt.parent(), c.tt.session)
	c.CostModel.Add(x, y)
	c.tt.rec.end(id, 1)
}

func (c *tracedCost) Refit() {
	id := c.tt.rec.begin("costmodel.refit", c.tt.parent(), c.tt.session)
	c.CostModel.Refit()
	c.tt.rec.end(id, c.CostModel.Len())
}

func (c *tracedCost) Predict(x []float64) float64 {
	id := c.tt.rec.begin("costmodel.predict", c.tt.parent(), c.tt.session)
	v := c.CostModel.Predict(x)
	c.tt.rec.end(id, 1)
	return v
}

func (c *tracedCost) Throughput(x []float64) float64 {
	id := c.tt.rec.begin("costmodel.predict", c.tt.parent(), c.tt.session)
	v := c.CostModel.Throughput(x)
	c.tt.rec.end(id, 1)
	return v
}

func (c *tracedCost) PredictBatch(xs [][]float64) []float64 {
	id := c.tt.rec.begin("costmodel.predict", c.tt.parent(), c.tt.session)
	v := c.CostModel.PredictBatch(xs)
	c.tt.rec.end(id, len(xs))
	return v
}

func (c *tracedCost) PredictBatchInto(xs [][]float64, out []float64) {
	id := c.tt.rec.begin("costmodel.predict", c.tt.parent(), c.tt.session)
	if c.into != nil {
		c.into.PredictBatchInto(xs, out)
	} else {
		copy(out, c.CostModel.PredictBatch(xs))
	}
	c.tt.rec.end(id, len(xs))
}

// tracedEngine wraps a search engine's round.
type tracedEngine struct {
	search.Engine
	tt *taskTrace
}

func (e *tracedEngine) RunRound(t *search.Task, k int) int {
	id := e.tt.rec.begin("search.round", e.tt.root(), e.tt.session)
	e.tt.cur = id
	n := e.Engine.RunRound(t, k)
	e.tt.cur = -1
	e.tt.rec.end(id, n)
	return n
}

// localEval is an in-process search.BatchEvaluator: it computes exactly what
// the task's own measurement path computes (hardware.NoisyExecSeeded with the
// measurer's noise seed), which is the contract of the seam, and times it.
type localEval struct {
	sim  *hardware.Simulator
	seed uint64
	tt   *taskTrace
}

func (l *localEval) EvalBatch(scheds []*schedule.Schedule, seqs []uint64) ([]float64, error) {
	id := l.tt.rec.begin("hardware.measure", l.tt.parent(), l.tt.session)
	out := make([]float64, len(scheds))
	for i, s := range scheds {
		out[i] = hardware.NoisyExecSeeded(l.sim, s, l.seed, seqs[i])
	}
	l.tt.rec.end(id, len(scheds))
	return out, nil
}

// tracedRemote times a fleet evaluator's RPC.
type tracedRemote struct {
	inner search.BatchEvaluator
	tt    *taskTrace
}

func (t *tracedRemote) EvalBatch(scheds []*schedule.Schedule, seqs []uint64) ([]float64, error) {
	id := t.tt.rec.begin("fleet.rpc", t.tt.parent(), t.tt.session)
	out, err := t.inner.EvalBatch(scheds, seqs)
	t.tt.rec.end(id, len(scheds))
	return out, err
}

// builtSession is the outcome of a session the benchmark assembled itself from
// the search-level pieces, the way core.TuneOperatorSession and
// harl.TuneNetworkContext do.
type builtSession struct {
	wall     float64
	trials   int
	bestExec float64 // operator sessions: noise-free run time of the best schedule
	updates  int     // PPO updates across the session's agents
}

// sessionTracer carries a traced session's recorder state; nil builds the
// session bare.
type sessionTracer struct {
	rec     *recorder
	session int
	root    int // the session span
	// remote, when set, replaces the in-process evaluator wrapper with a
	// timed fleet evaluator for the task.
	remote func(t *search.Task) search.BatchEvaluator

	mu     sync.Mutex
	wave   int // the open wave span of a network session, or -1
	closed int // the wave span closed last
}

func (st *sessionTracer) instrument(t *search.Task, eng search.Engine, root func() int) search.Engine {
	tt := &taskTrace{rec: st.rec, session: st.session, root: root, cur: -1}
	t.Cost = wrapCost(t.Cost, tt)
	if st.remote != nil {
		t.Remote = &tracedRemote{inner: st.remote(t), tt: tt}
	} else {
		t.Remote = &localEval{sim: t.Meas.Sim, seed: t.Meas.NoiseSeed(), tt: tt}
	}
	return &tracedEngine{Engine: eng, tt: tt}
}

// appendTimed is a journal append under a tunelog.append span.
func (st *sessionTracer) appendTimed(jr *tunelog.Journal, rec tunelog.Record, parent int) {
	id := st.rec.begin("tunelog.append", parent, st.session)
	jr.Append(rec) // sticky: Journal.Close reports the first append error
	st.rec.end(id, 1)
}

// harlUpdates sums the PPO update counts of a session's engines.
func harlUpdates(engines []search.Engine, tasks []*search.Task) int {
	n := 0
	for i, e := range engines {
		if h, ok := e.(*search.HARL); ok {
			if a := h.Agent(tasks[i]); a != nil {
				n += a.Updates()
			}
		}
	}
	return n
}

// buildOperator runs one operator session assembled from the search-level
// pieces exactly as core.TuneOperatorSession assembles it: seed → simulator →
// measurer → task → engine from the preset factory → round loop, journaled
// through the task's OnMeasure hook. With a tracer the layer wrappers sit on
// the seams.
func (w *tuneWorkload) buildOperator(env *tuneEnv, j *tuneJob, seed uint64, journal string, st *sessionTracer) (builtSession, error) {
	var out builtSession
	mk, _, err := core.EngineFactory(w.scheduler)
	if err != nil {
		return out, err
	}
	jr, err := tunelog.OpenJournal(journal)
	if err != nil {
		return out, err
	}
	start := time.Now()
	rng := xrand.New(seed)
	sim := hardware.NewSimulator(env.plat)
	meas := hardware.NewMeasurer(sim, rng.Split())
	task := search.NewTask(j.sg, env.plat, meas, rng.Split())
	if w.workers != 1 {
		task.Pool = search.NewParallelPool(w.workers)
	}
	inner := mk()
	eng := inner
	fp := j.sg.Fingerprint()
	if st != nil {
		st.root = st.rec.begin("session", -1, st.session)
		eng = st.instrument(task, inner, func() int { return st.root })
		tt := eng.(*tracedEngine).tt
		task.OnMeasure = func(s *schedule.Schedule, exec float64, trial int) {
			st.appendTimed(jr, tunelog.NewRecordFP(fp, env.plat.Name, w.scheduler, s, exec, trial, seed), tt.parent())
		}
	} else {
		task.OnMeasure = func(s *schedule.Schedule, exec float64, trial int) {
			jr.Append(tunelog.NewRecordFP(fp, env.plat.Name, w.scheduler, s, exec, trial, seed)) // sticky, see Close
		}
	}
	search.TuneSession(context.Background(), eng, task, w.trials, 16, nil)
	if st != nil {
		st.rec.end(st.root, task.Trials)
	}
	out.wall = time.Since(start).Seconds()
	if err := jr.Close(); err != nil {
		return out, err
	}
	out.trials = task.Trials
	out.updates = harlUpdates([]search.Engine{inner}, []*search.Task{task})
	if task.Best != nil {
		out.bestExec = sim.Exec(task.Best)
	}
	return out, nil
}

// buildNetwork runs one network session assembled as harl.TuneNetworkContext
// assembles its concurrent path: a ParallelNetworkTuner over the network's
// task set, journaled through the MultiTuner's wave-barrier recorder. With a
// tracer, waves are delimited from outside: a wave span opens at the first
// round after a barrier and closes when the barrier's progress events arrive.
func (w *tuneWorkload) buildNetwork(env *tuneEnv, j *tuneJob, seed uint64, journal string, st *sessionTracer) (builtSession, error) {
	var out builtSession
	jr, err := tunelog.OpenJournal(journal)
	if err != nil {
		return out, err
	}
	start := time.Now()
	pnt, err := core.NewParallelNetworkTuner(j.net, env.plat, w.scheduler, 16, seed, w.workers)
	if err != nil {
		jr.Close() //lint:allow errclose nothing was appended; the constructor error is the one reported
		return out, err
	}
	mt := pnt.MT
	inner := append([]search.Engine(nil), mt.Engines...)
	if st != nil {
		st.root = st.rec.begin("session", -1, st.session)
		st.wave = -1
		waveSpan := func() int {
			st.mu.Lock()
			defer st.mu.Unlock()
			if st.wave < 0 {
				st.wave = st.rec.begin("search.wave", st.root, st.session)
			}
			return st.wave
		}
		for i, t := range mt.Tasks {
			mt.Engines[i] = st.instrument(t, mt.Engines[i], waveSpan)
		}
		fps := make([]string, len(mt.Tasks))
		for i, t := range mt.Tasks {
			fps[i] = t.Graph.Fingerprint()
		}
		mt.SetRecorder(func(r search.TrialRecord) {
			st.appendTimed(jr, tunelog.NewRecordFP(fps[r.Task], env.plat.Name, w.scheduler, r.Sched, r.Exec, r.Trial, seed), waveSpan())
		})
		pnt.SetProgress(func(search.Progress) {
			// One event per task advanced, all at the barrier: the first of a
			// wave closes the wave span, and each one widens it.
			st.mu.Lock()
			if st.wave >= 0 {
				st.rec.end(st.wave, 0)
				st.closed, st.wave = st.wave, -1
			}
			id := st.closed
			st.mu.Unlock()
			st.rec.bump(id)
		})
	} else {
		pnt.AttachJournal(jr, seed)
	}
	pnt.RunCtx(context.Background(), w.trials)
	if st != nil {
		st.rec.end(st.root, pnt.Trials())
	}
	out.wall = time.Since(start).Seconds()
	if err := jr.Close(); err != nil {
		return out, err
	}
	out.trials = pnt.Trials()
	out.updates = harlUpdates(inner, mt.Tasks)
	return out, nil
}

func (w *tuneWorkload) build(env *tuneEnv, j *tuneJob, seed uint64, journal string, st *sessionTracer) (builtSession, error) {
	if j.net != nil {
		return w.buildNetwork(env, j, seed, journal, st)
	}
	return w.buildOperator(env, j, seed, journal, st)
}

// journalPath names a scratch journal of the traced pass.
func journalPath(env *tuneEnv, kind string, pass, job int) string {
	return filepath.Join(env.dir, fmt.Sprintf("%s-p%d-j%d.jsonl", kind, pass, job))
}
