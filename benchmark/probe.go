package main

import (
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"time"

	"harl"
	"harl/internal/bandit"
	"harl/internal/costmodel"
	"harl/internal/hardware"
	"harl/internal/registry"
	"harl/internal/rl"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/service"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/wire"
	"harl/internal/xrand"
)

// Probes are fixed-count replays of one layer's exported functions at the
// workload's real dimensions. They answer "what does one call cost", which the
// traced pass's totals (cost × calls) cannot separate. Each probe times several
// batches and reports the median batch, per operation.

// prober runs probes into a metric map; toy shrinks every probe to one short
// batch (the smoke test's scale).
type prober struct {
	m   map[string]float64
	toy bool
}

// size shrinks a fixture (sample counts, pool sizes) under the toy scale.
func (pr *prober) size(n int) int {
	if pr.toy {
		return max(16, n/8)
	}
	return n
}

// perOp times batches of n calls of fn and returns the median batch's time per
// call, in seconds.
func (pr *prober) perOp(batches, n int, fn func(i int)) float64 {
	if pr.toy {
		batches, n = 1, max(1, n/200)
	}
	var per []float64
	k := 0
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(k)
			k++
		}
		per = append(per, time.Since(start).Seconds()/float64(n))
	}
	return median(per)
}

// probeSet is the fixture every probe group shares: one subgraph, its
// sketches, and a pool of random schedules with their simulated run times.
type probeSet struct {
	sg       *texpr.Subgraph
	plat     *hardware.Platform
	sim      *hardware.Simulator
	sketches []*sketch.Sketch
	rng      *xrand.RNG
}

func newProbeSet(sg *texpr.Subgraph, plat *hardware.Platform) *probeSet {
	return &probeSet{sg: sg, plat: plat, sim: hardware.NewSimulator(plat), sketches: sketch.Generate(sg), rng: xrand.New(0x70726f6265)}
}

func (p *probeSet) random(n int) []*schedule.Schedule {
	out := make([]*schedule.Schedule, n)
	for i := range out {
		out[i] = schedule.NewRandom(p.sketches[p.rng.Intn(len(p.sketches))], len(p.plat.UnrollDepths), p.rng)
	}
	return out
}

// probeTune runs the probe groups of the layers a tuning session enters.
func (pr *prober) tune(env *tuneEnv, j *tuneJob) error {
	p := newProbeSet(j.graphs()[0], env.plat)
	pr.search(p)
	pr.rl(p)
	pr.schedule(p)
	if err := pr.costModel(p); err != nil {
		return err
	}
	return pr.tunelog(p, env.dir)
}

func (pr *prober) search(p *probeSet) {
	m := pr.m
	meas := hardware.NewMeasurer(p.sim, p.rng.Split())
	task := search.NewTask(p.sg, p.plat, meas, p.rng.Split())
	for i := 0; i < 8; i++ {
		task.ExploreRandom(16) // 128 samples: a trained model of mid-session size
	}
	batch := pr.size(512)
	fresh := p.random(5 * batch)
	m["probe.search.score_batch_512_us"] = 1e6 * pr.perOp(5, 1, func(i int) { task.ScoreBatch(fresh[i*batch : (i+1)*batch]) })
	batches := p.random(5 * 16)
	m["probe.search.measure_batch_16_us"] = 1e6 * pr.perOp(5, 1, func(i int) { task.MeasureBatch(batches[i*16 : (i+1)*16]) })
	execs := p.random(pr.size(2000))
	m["probe.hardware.exec_ns"] = 1e9 * pr.perOp(5, 2000, func(i int) { p.sim.Exec(execs[i%len(execs)]) })
}

func (pr *prober) rl(p *probeSet) {
	m := pr.m
	probe := p.random(1)[0]
	heads := []int{probe.NumTilingActions(), schedule.DeltaActions, schedule.DeltaActions, schedule.DeltaActions}
	state := probe.Features()
	agent := rl.NewAgent(len(state), heads, rl.DefaultConfig(), p.rng.Split())
	// One window step of the engine's episode: every live track acts, is
	// valued and observed, then the agent ticks once (training every
	// TrainInterval ticks). 16 tracks is the episode's mid-life width.
	const tracks = 16
	window := func(int) {
		for t := 0; t < tracks; t++ {
			d := agent.Act(state)
			v := agent.Value(state)
			agent.Observe(rl.Transition{State: state, Acts: d.Acts, OldLogP: d.LogProb, Reward: 0.01, Value: d.Value, NextValue: v})
		}
		agent.Tick()
	}
	for i := 0; i < 16; i++ {
		window(i) // fill the replay buffer past one minibatch
	}
	m["probe.rl.act_us"] = 1e6 * pr.perOp(5, 1000, func(int) { agent.Act(state) })
	before := mallocs()
	m["probe.rl.step_us"] = 1e6 / tracks * pr.perOp(5, 20, window)
	m["probe.rl.step_allocs"] = float64(mallocs()-before) / (5 * 20 * tracks)
	m["probe.rl.train_ms"] = 1e3 * pr.perOp(5, 10, func(int) { agent.Train() })
}

func (pr *prober) costModel(p *probeSet) error {
	m := pr.m
	small, large := pr.size(512), pr.size(2048)
	scheds := p.random(large)
	xs := make([][]float64, len(scheds))
	ys := make([]float64, len(scheds))
	for i, s := range scheds {
		xs[i] = s.Features()
		ys[i] = math.Log(1 / p.sim.Exec(s))
	}
	fit := func(n int) *costmodel.Model {
		model := costmodel.New(costmodel.DefaultParams())
		for i := 0; i < n; i++ {
			model.Add(xs[i], ys[i])
		}
		return model
	}
	m512, m2048 := fit(small), fit(large)
	m["probe.costmodel.refit_512_ms"] = 1e3 * pr.perOp(5, 1, func(int) { m512.Refit() })
	m["probe.costmodel.refit_2048_ms"] = 1e3 * pr.perOp(3, 1, func(int) { m2048.Refit() })
	m["probe.costmodel.predict_batch_512_us"] = 1e6 * pr.perOp(5, 10, func(int) { m512.PredictBatch(xs[:small]) })
	data, err := m2048.MarshalCheckpoint()
	if err != nil {
		return err
	}
	m["probe.costmodel.checkpoint_load_ms"] = 1e3 * pr.perOp(5, 1, func(int) {
		costmodel.UnmarshalCheckpoint(data) // timing only; the bytes were just marshaled
	})
	return nil
}

func (pr *prober) schedule(p *probeSet) {
	m := pr.m
	m["probe.sketch.generate_us"] = 1e6 * pr.perOp(5, 100, func(int) { sketch.Generate(p.sg) })
	scheds := p.random(pr.size(5 * 2000))
	nt := scheds[0].NumTilingActions()
	acts := make([]schedule.Action, 997)
	for i := range acts {
		acts[i] = schedule.Action{Tiling: p.rng.Intn(nt), ComputeAt: p.rng.Intn(3), Parallel: p.rng.Intn(3), Unroll: p.rng.Intn(3)}
	}
	m["probe.schedule.apply_ns"] = 1e9 * pr.perOp(5, 2000, func(i int) { scheds[i].Apply(acts[i%len(acts)]) })
	// Each schedule's first Features call computes the vector; later ones read
	// the memo, so every call here is on a schedule never featurized before.
	m["probe.schedule.features_cold_ns"] = 1e9 * pr.perOp(5, 2000, func(i int) { scheds[i].Features() })
	m["probe.schedule.marshal_ns"] = 1e9 * pr.perOp(5, 2000, func(i int) { scheds[i].MarshalSteps() })
	steps := make([]string, pr.size(2000))
	for i := range steps {
		steps[i] = scheds[i].MarshalSteps()
	}
	m["probe.schedule.unmarshal_us"] = 1e6 * pr.perOp(5, 400, func(i int) {
		schedule.UnmarshalSteps(p.sketches, steps[i%len(steps)]) // timing only; the steps were just marshaled
	})
	arms := max(len(p.sketches), 2)
	mab := bandit.NewSWUCB(arms, 0.25, 256, p.rng.Split())
	m["probe.bandit.select_ns"] = 1e9 * pr.perOp(5, 2000, func(i int) { mab.Update(mab.Select(), float64(i%7)/7) })
}

func (pr *prober) tunelog(p *probeSet, dir string) error {
	m := pr.m
	scheds := p.random(pr.size(10000))
	recs := make([]tunelog.Record, len(scheds))
	fp := p.sg.Fingerprint()
	for i, s := range scheds {
		recs[i] = tunelog.NewRecordFP(fp, p.plat.Name, "harl", s, p.sim.Exec(s), i+1, 1)
	}
	path := filepath.Join(dir, "probe-journal.jsonl")
	jr, err := tunelog.OpenJournal(path)
	if err != nil {
		return err
	}
	appendS := pr.perOp(5, 2000, func(i int) {
		jr.Append(recs[i]) // sticky: Close reports it
	})
	if err := jr.Close(); err != nil {
		return err
	}
	m["probe.tunelog.append_us"] = 1e6 * appendS
	m["probe.tunelog.load_10k_ms"] = 1e3 * pr.perOp(3, 1, func(int) {
		tunelog.LoadFile(path) // timing only
	})
	line, err := recs[0].MarshalLine()
	if err != nil {
		return err
	}
	m["probe.tunelog.parse_line_ns"] = 1e9 * pr.perOp(5, 2000, func(int) {
		tunelog.ParseLine(line) // timing only
	})
	return nil
}

// probeRegistry measures both storage layouts on the same 2048-key content —
// the side-by-side the choice between them needs. Keys are resolved through
// the internal registry directly: no sketch regeneration, storage only.
func (pr *prober) registry(pre *preload, plat *hardware.Platform, dir string) error {
	m := pr.m
	db, err := tunelog.LoadFile(pre.journal)
	if err != nil {
		return err
	}
	recs := db.Records()
	p := newProbeSet(pre.shapes[0].job().sg, plat)
	for _, layout := range []registry.Layout{registry.LayoutSharded, registry.LayoutSingle} {
		name := "probe.registry." + string(layout) + "."
		root := filepath.Join(dir, "probe-registry-"+string(layout))
		reg, err := registry.OpenOptions(root, registry.Options{Layout: layout})
		if err != nil {
			return err
		}
		if _, err := reg.PublishBatch(recs); err != nil {
			return err
		}
		if err := reg.Close(); err != nil {
			return err
		}
		// Opening a registry that already holds the keys: what a daemon start
		// or a CLI run pays.
		var opened []*registry.Registry
		m[name+"open_2048_ms"] = 1e3 * pr.perOp(5, 1, func(int) {
			if r, err := registry.Open(root); err == nil {
				opened = append(opened, r)
			}
		})
		for _, r := range opened[1:] {
			if err := r.Close(); err != nil {
				return err
			}
		}
		reg = opened[0]
		hot := recs[len(recs)/2]
		m[name+"resolve_hot_us"] = 1e6 * pr.perOp(5, 2000, func(int) {
			reg.Resolve(hot.Workload, hot.Target, hot.Scheduler) // timing only
		})
		// Walking every key in journal order visits all 256 shards round and
		// round, so a 64-shard cache misses on most of them.
		m[name+"resolve_cold_us"] = 1e6 * pr.perOp(3, len(recs), func(i int) {
			rec := recs[i%len(recs)]
			reg.Resolve(rec.Workload, rec.Target, rec.Scheduler) // timing only
		})
		fresh := p.random(5*64 + 20)
		newRec := func(i int) tunelog.Record {
			return tunelog.NewRecordFP(fmt.Sprintf("probe-key-%d", i), plat.Name, "harl", fresh[i], p.sim.Exec(fresh[i]), 1, 1)
		}
		m[name+"publish_us"] = 1e6 * pr.perOp(1, 20, func(i int) {
			reg.Publish(newRec(i)) // timing only
		})
		m[name+"publish_batch64_us_per_rec"] = 1e6 / 64 * pr.perOp(5, 1, func(i int) {
			batch := make([]tunelog.Record, 64)
			for k := range batch {
				batch[k] = newRec(20 + i*64 + k)
			}
			reg.PublishBatch(batch) // timing only
		})
		if err := reg.Close(); err != nil {
			return err
		}
	}
	return nil
}

// discardResponse is an http.ResponseWriter that keeps nothing.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(int)             {}

// probeWire times the hit path's two ends below HTTP: encoding the hit body,
// and the public registry lookup (resolve, regenerate sketches, re-apply the
// steps, simulate).
func (pr *prober) wire(env *serveEnv) error {
	m := pr.m
	sh := env.pre.shapes[0]
	w := harl.GEMM(sh.m, sh.k, sh.n, 1)
	hit, ok, err := env.reg.Lookup(w, harl.CPU(), preloadSched)
	if err != nil || !ok {
		return fmt.Errorf("lookup of preloaded key %s: found %v: %v", sh, ok, err)
	}
	body := service.ScheduleResponse{CacheHit: true, Workload: hit.Record.Workload, Target: hit.Record.Target,
		Scheduler: hit.Record.Scheduler, ExecSeconds: hit.ExecSeconds, GFLOPS: hit.GFLOPS, Trials: hit.Record.Trial,
		BestSchedule: hit.Schedule, Steps: hit.Record.Steps}
	sink := &discardResponse{h: http.Header{}}
	m["probe.wire.encode_hit_us"] = 1e6 * pr.perOp(5, 2000, func(int) { wire.WriteJSON(sink, http.StatusOK, body) })
	m["probe.harl.registry_lookup_us"] = 1e6 * pr.perOp(5, 2000, func(int) {
		env.reg.Lookup(w, harl.CPU(), preloadSched) // timing only
	})
	return nil
}
