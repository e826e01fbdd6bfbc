package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harl"
	"harl/internal/hardware"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// tuneJob is one thing a session tunes: an operator or a network. The
// benchmark rebuilds the operator's subgraph (or the network's inventory)
// itself, from the same constructors the public API uses, so the output checks
// can regenerate sketches and re-apply the serialized best steps.
type tuneJob struct {
	name string
	w    harl.Workload     // operator jobs
	sg   *texpr.Subgraph   // the operator's subgraph; fingerprint-equal to w
	net  *workload.Network // network jobs
	key  string            // the network's public name ("bert")
}

func gemmJob(m, k, n int) tuneJob {
	name := fmt.Sprintf("GEMM-%dx%dx%d-b1", m, k, n)
	return tuneJob{name: name, w: harl.GEMM(m, k, n, 1), sg: workload.GEMM(name, 1, m, k, n)}
}

// graphs lists the subgraphs the job tunes, in task order.
func (j *tuneJob) graphs() []*texpr.Subgraph {
	if j.net != nil {
		return j.net.Subgraphs
	}
	return []*texpr.Subgraph{j.sg}
}

// tuneOutcome is what either public entry point reports, in one shape.
type tuneOutcome struct {
	trials    int
	execSec   float64 // noise-free run time of the best program (Σ w·g for a network)
	searchSec float64 // simulated search clock
	refits    int
	bestLog   []float64 // operator jobs: best-so-far after each trial
	subExec   []float64 // network jobs: per-subgraph best run time
	cacheHit  bool
}

// tune runs one session through the public API.
func (j *tuneJob) tune(t harl.Target, o harl.Options) (tuneOutcome, error) {
	if j.net != nil {
		r, err := harl.TuneNetwork(j.key, 1, t, o)
		if err != nil {
			return tuneOutcome{}, err
		}
		out := tuneOutcome{trials: r.Trials, execSec: r.EstimatedSeconds, searchSec: r.SearchSeconds,
			refits: r.CostModelRefits, cacheHit: r.Trials == 0 && r.CacheHits == len(r.Breakdown)}
		for _, b := range r.Breakdown {
			out.subExec = append(out.subExec, b.ExecSeconds)
		}
		return out, nil
	}
	r, err := harl.TuneOperator(j.w, t, o)
	if err != nil {
		return tuneOutcome{}, err
	}
	return tuneOutcome{trials: r.Trials, execSec: r.ExecSeconds, searchSec: r.SearchSeconds,
		refits: r.CostModelRefits, bestLog: r.BestLog, cacheHit: r.CacheHit}, nil
}

// tuneWorkload is a closed loop of sequential public-API sessions. One pass
// tunes every job once; passes repeat, with fresh session seeds, until the
// timed window closes.
type tuneWorkload struct {
	name      string
	scheduler string
	trials    int
	workers   int
	jobs      []tuneJob
	// pinned is how many leading passes feed the deterministic aggregates; the
	// loop always completes at least that many.
	pinned int
	// tracedPasses is the length of the shortened traced pass.
	tracedPasses int
}

func (w *tuneWorkload) options(seed uint64, journal string) harl.Options {
	return harl.Options{Scheduler: w.scheduler, Trials: w.trials, Seed: seed, Workers: w.workers, RecordLog: journal}
}

// sessionSeed derives the seed of one session from the workload seed.
func sessionSeed(seed uint64, pass, job int) uint64 {
	return xrand.Hash64(seed, 0x73657373, uint64(pass), uint64(job)) | 1
}

// session is one completed public-API call with its checked outputs.
type session struct {
	job     *tuneJob
	seed    uint64
	journal string
	wall    float64
	out     tuneOutcome
	sha     string
	bytes   int64
}

func (s *session) ledger(id string) ledgerEntry {
	return ledgerEntry{ID: id, Seed: s.seed, JournalSHA256: s.sha, Trials: s.out.trials,
		Refits: s.out.refits, BestExecMs: s.out.execSec * 1e3, SimSearchS: s.out.searchSec}
}

// tuneEnv is a tune workload's set-up state.
type tuneEnv struct {
	dir    string
	target harl.Target
	plat   *hardware.Platform
	sim    *hardware.Simulator
}

func (w *tuneWorkload) setup(cfg runConfig) (env *tuneEnv, err error) {
	dir, err := scratchDir(cfg, w.name)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
		}
	}()
	t := harl.CPU()
	plat := hardware.ByName(t.Name())
	if plat == nil {
		return nil, fmt.Errorf("no platform %q", t.Name())
	}
	env = &tuneEnv{dir: dir, target: t, plat: plat, sim: hardware.NewSimulator(plat)}
	// One short untimed session per job pays for lazy initialisation (page
	// faults, pools, the first sketch generation) before anything is timed.
	for i := range w.jobs {
		j := &w.jobs[i]
		if j.sg != nil && j.sg.Fingerprint() != j.w.Fingerprint() {
			return nil, fmt.Errorf("%s: rebuilt subgraph fingerprint %s differs from the public workload's %s", j.name, j.sg.Fingerprint(), j.w.Fingerprint())
		}
		if cfg.toy {
			continue
		}
		o := w.options(sessionSeed(cfg.seed, -1, i), filepath.Join(dir, fmt.Sprintf("warm-%d.jsonl", i)))
		o.Trials = w.warmTrials()
		if _, err := j.tune(t, o); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", j.name, err)
		}
	}
	return env, nil
}

// warmTrials sizes the warm-up session: 64 trials, or enough for a network to
// visit every subgraph once.
func (w *tuneWorkload) warmTrials() int {
	n := 64
	for _, j := range w.jobs {
		if j.net != nil && 16*len(j.net.Subgraphs) > n {
			n = 16 * len(j.net.Subgraphs)
		}
	}
	if n > w.trials {
		n = w.trials
	}
	return n
}

// timedSetup sets the workload up reps times and reports the median, keeping
// the last environment. Set-up is its own end-to-end metric so that work a
// later change moves out of the timed phase and into set-up still shows.
func timedSetup[E any](reps int, r *runResult, setup func(rep int) (E, error), teardown func(E)) (E, bool) {
	var env, zero E
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			teardown(env)
		}
		start := time.Now()
		e, err := setup(i)
		if err != nil {
			r.op("setup: " + err.Error())
			return zero, false
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	r.Metrics["setup_s"] = median(times)
	return env, true
}

func (e *tuneEnv) close() { os.RemoveAll(e.dir) }

// runSession runs and checks one session with the given session seed, writing
// its journal under tag. Every failed check is one failed operation: the
// session itself is the operation attempted.
func (w *tuneWorkload) runSession(r *runResult, env *tuneEnv, seed uint64, tag string, job int, mod func(*harl.Options)) *session {
	j := &w.jobs[job]
	s := &session{job: j, seed: seed, journal: filepath.Join(env.dir, fmt.Sprintf("%s-j%d.jsonl", tag, job))}
	opts := w.options(s.seed, s.journal)
	if mod != nil {
		mod(&opts)
	}
	start := time.Now()
	out, err := j.tune(env.target, opts)
	s.wall = time.Since(start).Seconds()
	if err != nil {
		r.op(fmt.Sprintf("%s seed %d: %v", j.name, s.seed, err))
		return nil
	}
	s.out = out
	r.op(checkSession(env, s))
	return s
}

// checkSession is the output check of one session, against references the
// tuner did not compute: the journal it wrote is re-read, each subgraph's best
// record is re-applied to freshly generated sketches, validated, and run
// through a fresh simulator, which must reproduce the reported run time bit
// for bit. It returns "" when everything holds.
func checkSession(env *tuneEnv, s *session) string {
	digest, lines, size, err := fileSHA256(s.journal)
	if err != nil {
		return fmt.Sprintf("%s: journal: %v", s.job.name, err)
	}
	s.sha, s.bytes = digest, size
	if lines != s.out.trials {
		return fmt.Sprintf("%s: journal has %d lines for %d trials", s.job.name, lines, s.out.trials)
	}
	for i := 1; i < len(s.out.bestLog); i++ {
		if s.out.bestLog[i] > s.out.bestLog[i-1] {
			return fmt.Sprintf("%s: best-so-far log rises at trial %d", s.job.name, i+1)
		}
	}
	if s.job.net == nil && len(s.out.bestLog) != s.out.trials {
		return fmt.Sprintf("%s: best log has %d entries for %d trials", s.job.name, len(s.out.bestLog), s.out.trials)
	}
	db, err := tunelog.LoadFile(s.journal)
	if err != nil {
		return fmt.Sprintf("%s: %v", s.job.name, err)
	}
	execs, problem := replayBests(env, s.job, db)
	if problem != "" {
		return problem
	}
	if s.job.net == nil {
		if execs[0] != s.out.execSec {
			return fmt.Sprintf("%s: replayed best runs in %g s, session reported %g s", s.job.name, execs[0], s.out.execSec)
		}
		return ""
	}
	total := 0.0
	for i, g := range s.job.net.Subgraphs {
		if execs[i] != s.out.subExec[i] {
			return fmt.Sprintf("%s/%s: replayed best runs in %g s, session reported %g s", s.job.name, g.Name, execs[i], s.out.subExec[i])
		}
		total += float64(g.Weight) * execs[i]
	}
	if total != s.out.execSec {
		return fmt.Sprintf("%s: replayed bests sum to %g s, session estimated %g s", s.job.name, total, s.out.execSec)
	}
	return ""
}

// replayBests rebuilds, per subgraph of the job, the best record of the
// database on fresh sketches and returns its noise-free simulated run time.
func replayBests(env *tuneEnv, j *tuneJob, db *tunelog.Database) ([]float64, string) {
	var execs []float64
	for _, g := range j.graphs() {
		rec, ok := db.Best(g.Fingerprint(), env.plat.Name)
		if !ok {
			return nil, fmt.Sprintf("%s/%s: no record in the journal", j.name, g.Name)
		}
		sched, err := rec.Schedule(sketch.Generate(g))
		if err != nil {
			return nil, fmt.Sprintf("%s/%s: best steps do not re-apply: %v", j.name, g.Name, err)
		}
		if err := sched.Validate(); err != nil {
			return nil, fmt.Sprintf("%s/%s: best schedule invalid: %v", j.name, g.Name, err)
		}
		execs = append(execs, env.sim.Exec(sched))
	}
	return execs, ""
}

// run is the untraced run: set-up, the timed closed loop and the end-to-end
// metrics.
func (w *tuneWorkload) run(cfg runConfig) *runResult {
	r := newResult(w.name, cfg)
	if cfg.trace {
		return w.runTraced(cfg, r)
	}
	r.CalibMs[0] = calibrate(cfg)
	env, ok := timedSetup(scaled(cfg, 5, 1), r, func(int) (*tuneEnv, error) { return w.setup(cfg) }, (*tuneEnv).close)
	if !ok {
		return r
	}
	defer env.close()

	var sessions []*session
	walls := make([][]float64, len(w.jobs)) // per job, one sample per pass
	start := time.Now()
	windowOpen := func(pass int) bool { return pass < w.pinned || time.Since(start).Seconds() < cfg.seconds }
	for pass := 0; windowOpen(pass); pass++ {
		// The window closes between sessions, not between passes, so a run
		// overshoots by one session at most.
		for job := 0; job < len(w.jobs) && windowOpen(pass); job++ {
			s := w.runSession(r, env, sessionSeed(cfg.seed, pass, job), fmt.Sprintf("p%d", pass), job, nil)
			if s == nil {
				continue
			}
			sessions = append(sessions, s)
			walls[job] = append(walls[job], s.wall)
			r.WallS = append(r.WallS, s.wall)
			r.Ledger = append(r.Ledger, s.ledger(fmt.Sprintf("p%d/%s", pass, s.job.name)))
		}
	}
	// A shared host only ever slows a session down, in spells of a second to a
	// minute, so the lower quartile of one job's sessions is the time that job
	// takes when the host leaves it alone; a job's sessions are spread evenly
	// over the window, one per pass, and a spell has to cover three quarters of
	// them to move it. The jobs of a mix differ in cost, so the quartile is
	// taken per job and the mean over jobs is the session of the mix.
	var jobQuartiles []float64
	for _, ws := range walls {
		if len(ws) == 0 {
			return r
		}
		jobQuartiles = append(jobQuartiles, quantile(ws, 0.25))
	}

	r.Pinned = w.pinned * len(w.jobs)
	if r.Pinned > len(sessions) {
		r.Pinned = len(sessions)
	}
	var execMs, simS []float64
	for _, s := range sessions[:r.Pinned] {
		execMs = append(execMs, s.out.execSec*1e3)
		simS = append(simS, s.out.searchSec)
	}
	r.Metrics["session_s_p25"] = mean(jobQuartiles)
	r.Metrics["sim_search_s_p50"] = median(simS)
	r.Metrics["best_exec_gmean_ms"] = gmean(execMs)
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	r.CalibMs[1] = calibrate(cfg)
	return r
}

// Hit-phase sizing: repeated requests run for hitSeconds or maxHits calls,
// whichever ends first, and at least minHits.
const (
	hitSeconds = 2.0
	maxHits    = 400
	minHits    = 20
)

// hitPhase measures the request a user repeats (traced pass only: a 10 µs-to-
// 100 ms file-system-bound call does not repeat within any useful bound on this
// host, so it is a per-layer number). The sessions' journals
// are imported into a registry (how a CLI or a daemon boots its cache); then
// each hit does what a second `harl-tune -registry` run does: open the
// registry, make the same public-API call with it attached, close it. The call
// must come back as a cache hit with zero trials and the run time the replayed
// journals predict. It returns the median latency in milliseconds.
func (w *tuneWorkload) hitPhase(cfg runConfig, r *runResult, env *tuneEnv, sessions []*session) float64 {
	dir := filepath.Join(env.dir, "registry")
	merged := tunelog.NewDatabase()
	reg, err := harl.OpenRegistry(dir)
	if err != nil {
		r.op("hit phase: " + err.Error())
		return 0
	}
	for _, s := range sessions {
		if _, err := reg.ImportJournal(s.journal); err != nil {
			r.op("hit phase: import: " + err.Error())
		}
		db, err := tunelog.LoadFile(s.journal)
		if err != nil {
			r.op("hit phase: " + err.Error())
			continue
		}
		for _, rec := range db.Records() {
			merged.Add(rec)
		}
	}
	if err := reg.Close(); err != nil {
		r.op("hit phase: close registry: " + err.Error())
		return 0
	}
	// The registry keeps the best record per key across every imported
	// session; the merged database predicts the same winner independently.
	want := make([]float64, len(w.jobs))
	for i := range w.jobs {
		execs, problem := replayBests(env, &w.jobs[i], merged)
		if problem != "" {
			r.op("hit phase: " + problem)
			continue
		}
		for k, g := range w.jobs[i].graphs() {
			if w.jobs[i].net != nil {
				want[i] += float64(g.Weight) * execs[k]
			} else {
				want[i] = execs[k]
			}
		}
	}
	var lat []float64
	budget, most := hitSeconds, maxHits
	least := minHits
	if cfg.toy {
		budget, most, least = 0, 0, len(w.jobs)
	}
	start := time.Now()
	for n := 0; n < least || (n < most && time.Since(start).Seconds() < budget); n++ {
		i := n % len(w.jobs)
		t0 := time.Now()
		out, err := w.hit(env, dir, i, sessionSeed(cfg.seed, 0, i))
		lat = append(lat, time.Since(t0).Seconds()*1e3)
		switch {
		case err != nil:
			r.op(fmt.Sprintf("hit %s: %v", w.jobs[i].name, err))
		case !out.cacheHit || out.trials != 0:
			r.op(fmt.Sprintf("hit %s: not served from the registry (%d trials)", w.jobs[i].name, out.trials))
		case out.execSec != want[i]:
			r.op(fmt.Sprintf("hit %s: registry answered %g s, journals predict %g s", w.jobs[i].name, out.execSec, want[i]))
		default:
			r.op("")
		}
	}
	return median(lat)
}

// hit is one repeated request: open the registry, call, close.
func (w *tuneWorkload) hit(env *tuneEnv, dir string, job int, seed uint64) (tuneOutcome, error) {
	reg, err := harl.OpenRegistry(dir)
	if err != nil {
		return tuneOutcome{}, err
	}
	o := w.options(seed, "")
	o.Registry = reg
	out, err := w.jobs[job].tune(env.target, o)
	if cerr := reg.Close(); err == nil {
		err = cerr
	}
	return out, err
}

// scaled picks the toy value under the smoke test's scale.
func scaled(cfg runConfig, full, toy int) int {
	if cfg.toy {
		return toy
	}
	return full
}

func gemmHarl(cfg runConfig) *tuneWorkload {
	return &tuneWorkload{name: "op-gemm-harl", scheduler: "harl", trials: scaled(cfg, 320, 32), workers: 1,
		jobs: []tuneJob{gemmJob(1024, 1024, 1024)}, pinned: scaled(cfg, 4, 1), tracedPasses: scaled(cfg, 2, 1)}
}

func bertHarl(cfg runConfig) *tuneWorkload {
	return &tuneWorkload{name: "net-bert-harl", scheduler: "harl", trials: scaled(cfg, 800, 160), workers: 2,
		jobs: []tuneJob{{name: "bert", net: workload.BERT(1), key: "bert"}}, pinned: scaled(cfg, 3, 1), tracedPasses: 1}
}

// mixCategories are the Table-6 operator categories; the mix tunes the first
// configuration of each, so the operator set is the same for every seed and
// only the session seeds vary.
var mixCategories = []string{"GEMM-S", "GEMM-M", "GEMM-L", "C1D", "C2D", "C3D", "T2D"}

func mixAnsor(cfg runConfig) *tuneWorkload {
	w := &tuneWorkload{name: "op-mix-ansor", scheduler: "ansor", trials: scaled(cfg, 500, 32), workers: 1,
		pinned: scaled(cfg, 4, 1), tracedPasses: scaled(cfg, 2, 1)}
	for _, cat := range mixCategories {
		w.jobs = append(w.jobs, tuneJob{name: cat, w: harl.TableSixWorkloads(cat, 1)[0], sg: workload.SuiteFor(cat, 1)[0]})
	}
	return w
}

func runGemmHarl(cfg runConfig) *runResult { return gemmHarl(cfg).run(cfg) }
func runBertHarl(cfg runConfig) *runResult { return bertHarl(cfg).run(cfg) }
func runMixAnsor(cfg runConfig) *runResult { return mixAnsor(cfg).run(cfg) }
