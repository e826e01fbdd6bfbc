package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harl"
)

// targetsJSON pins, per workload and job, the run-objective value (the
// RunBestSeconds a session's progress events report) that counts as "reached
// the target latency": 1.05× the median final value of the commit that added
// the benchmark. It is regenerated only by -pin-targets, never by a change
// that claims a gain.
//
//go:embed targets.json
var targetsJSON []byte

func loadTargets() (map[string]float64, error) {
	var t map[string]float64
	if err := json.Unmarshal(targetsJSON, &t); err != nil {
		return nil, fmt.Errorf("targets.json: %w", err)
	}
	return t, nil
}

func targetKey(workload, job string) string { return workload + "/" + job }

// progressPoint is one progress event as seen from outside the session.
type progressPoint struct {
	wall    float64 // seconds since the session started
	sim     float64 // the simulated search clock
	runBest float64 // the run objective; 0 until it exists
}

// watchProgress returns an Options modifier that timestamps every progress
// event of the session from outside, and the slice the events land in.
func watchProgress() (func(*harl.Options), *[]progressPoint) {
	var pts []progressPoint
	var start time.Time
	return func(o *harl.Options) {
		start = time.Now()
		o.OnProgress = func(e harl.ProgressEvent) {
			pts = append(pts, progressPoint{time.Since(start).Seconds(), e.SearchSeconds, e.RunBestSeconds})
		}
	}, &pts
}

// reached returns the first point at which the run objective was at or below
// the target.
func reached(pts []progressPoint, target float64) (progressPoint, bool) {
	for _, p := range pts {
		if p.runBest > 0 && p.runBest <= target {
			return p, true
		}
	}
	return progressPoint{}, false
}

// runTraced is the traced pass of a tune workload: a shortened run in which
// every session seed is run three ways —
//
//	a. through the public API, untraced, with progress events timestamped
//	   from outside (time to target, allocation, the reference journal);
//	b. assembled by the benchmark from the search-level pieces, bare
//	   (a − b is what the public session pipeline adds);
//	c. assembled the same way with the layer wrappers installed
//	   (c − b is what tracing costs; the spans give the layer split).
//
// All three journals must be byte-identical: that equality is the proof that
// the wrappers are pass-through and that the benchmark's assembly is the
// public one, and it is a determinism check for free.
func (w *tuneWorkload) runTraced(cfg runConfig, r *runResult) *runResult {
	for _, s := range perLayer {
		r.Metrics[s.Name] = 0
	}
	targets, err := loadTargets()
	if err != nil {
		r.op(err.Error())
		return r
	}
	r.CalibMs[0] = calibrate(cfg)
	env, err := w.setup(cfg)
	if err != nil {
		r.op("setup: " + err.Error())
		return r
	}
	defer env.close()

	rec := newRecorder()
	var wallA, wallB, wallC, allocMB, simToTarget, wallToTarget []float64
	reachedN, updates, trials := 0, 0, 0
	var public []*session // the public-API session of each seed
	var journalBytes int64
	for pass := 0; pass < w.tracedPasses; pass++ {
		for job := range w.jobs {
			j := &w.jobs[job]
			watch, pts := watchProgress()
			before := totalAlloc()
			a := w.runSession(r, env, sessionSeed(cfg.seed, pass, job), fmt.Sprintf("p%d", pass), job, watch)
			if a == nil {
				continue
			}
			public = append(public, a)
			allocMB = append(allocMB, float64(totalAlloc()-before)/(1<<20))
			r.Ledger = append(r.Ledger, a.ledger(fmt.Sprintf("p%d/%s", pass, j.name)))
			trials += a.out.trials
			journalBytes += a.bytes
			if target, ok := targets[targetKey(w.name, j.name)]; ok && !cfg.toy {
				if p, ok := reached(*pts, target); ok {
					reachedN++
					simToTarget = append(simToTarget, p.sim)
					wallToTarget = append(wallToTarget, p.wall)
				}
			}

			b, err := w.build(env, j, a.seed, journalPath(env, "bare", pass, job), nil)
			r.op(sameSession("bare", a, b, err, journalPath(env, "bare", pass, job)))
			st := &sessionTracer{rec: rec, session: len(public) - 1}
			c, err := w.build(env, j, a.seed, journalPath(env, "traced", pass, job), st)
			r.op(sameSession("traced", a, c, err, journalPath(env, "traced", pass, job)))
			wallA, wallB, wallC = append(wallA, a.wall), append(wallB, b.wall), append(wallC, c.wall)
			updates += c.updates
		}
	}
	if len(public) == 0 {
		return r
	}

	m := r.Metrics
	ls := rec.stats()
	sessionLayerMetrics(m, ls, updates)
	wave, measure := stat(ls, "search.wave"), stat(ls, "hardware.measure")
	m["search.wave.calls"] = float64(wave.calls)
	m["search.wave.total_s"] = wave.total
	if wave.calls > 0 {
		m["search.wave.width_mean"] = float64(wave.n) / float64(wave.calls)
	}
	m["hardware.measure.batches"] = float64(measure.calls)
	m["hardware.measure.trials"] = float64(measure.n)
	m["hardware.measure.total_s"] = measure.total
	m["tunelog.journal.bytes"] = float64(journalBytes)
	m["harl.session.overhead_s"] = mean(wallA) - mean(wallB)
	m["harl.session.alloc_mb"] = mean(allocMB)
	m["harl.trials_per_s"] = float64(trials) / (mean(wallA) * float64(len(public)))
	m["harl.hit_ms_p50"] = w.hitPhase(cfg, r, env, public)
	m["bench.trace.overhead_pct"] = 100 * (mean(wallC) - mean(wallB)) / mean(wallB)
	m["target.reached_share"] = float64(reachedN) / float64(len(public))
	m["target.sim_search_s_p50"] = median(simToTarget)
	m["target.wall_s_p50"] = median(wallToTarget)

	// Parallel scaling: the same network session at one worker. Worker count
	// never changes results, so its journal must equal the two-worker one.
	if w.workers > 1 && !cfg.toy {
		one := w.runSession(r, env, public[0].seed, "w1", 0, func(o *harl.Options) { o.Workers = 1 })
		if one != nil {
			m["search.pool.scaling_w2"] = one.wall / public[0].wall
			if one.sha != public[0].sha {
				r.fail("one-worker session's journal differs from the two-worker session's of the same seed")
			}
		}
	}

	if err := (&prober{m, cfg.toy}).tune(env, &w.jobs[0]); err != nil {
		r.fail("probe: " + err.Error())
	}
	m["bench.calib_ms"] = r.CalibMs[0]
	r.CalibMs[1] = calibrate(cfg)
	if err := rec.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json"), w.name, cfg.seed); err != nil {
		r.fail("write trace: " + err.Error())
	}
	return r
}

// sameSession checks a benchmark-assembled session against the public-API
// session of the same seed: same trial count and a byte-identical journal
// (hence the same best schedule, bit for bit).
func sameSession(kind string, a *session, b builtSession, err error, journal string) string {
	if err != nil {
		return fmt.Sprintf("%s %s session: %v", kind, a.job.name, err)
	}
	digest, _, _, err := fileSHA256(journal)
	if err != nil {
		return fmt.Sprintf("%s %s session: %v", kind, a.job.name, err)
	}
	if b.trials != a.out.trials || digest != a.sha {
		return fmt.Sprintf("%s %s session differs from the public-API session of seed %d: %d vs %d trials, journal %.12s vs %.12s",
			kind, a.job.name, a.seed, b.trials, a.out.trials, digest, a.sha)
	}
	return ""
}

// pinTargets regenerates targets.json from three seeds per job: 1.05× the
// median final run objective. Run it only in a change that alters the
// benchmark itself.
func pinTargets(outDir string) error {
	cfg := runConfig{seed: 1, outDir: outDir}
	targets := map[string]float64{}
	for _, w := range []*tuneWorkload{gemmHarl(cfg), bertHarl(cfg), mixAnsor(cfg)} {
		env, err := w.setup(cfg)
		if err != nil {
			return err
		}
		r := newResult(w.name, cfg)
		for job := range w.jobs {
			var finals []float64
			for pass := 0; pass < 3; pass++ {
				watch, pts := watchProgress()
				if s := w.runSession(r, env, sessionSeed(1000, pass, job), fmt.Sprintf("pin%d", pass), job, watch); s != nil && len(*pts) > 0 {
					finals = append(finals, (*pts)[len(*pts)-1].runBest)
				}
			}
			targets[targetKey(w.name, w.jobs[job].name)] = 1.05 * median(finals)
		}
		env.close()
		if r.Failed > 0 {
			return fmt.Errorf("%s: %v", w.name, r.Failures)
		}
	}
	data, err := json.MarshalIndent(targets, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("benchmark", "targets.json"), append(data, '\n'), 0o644)
}
