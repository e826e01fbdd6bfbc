package harl

import (
	"context"
	"errors"
	"fmt"

	"harl/internal/core"
	"harl/internal/search"
	"harl/internal/tunelog"
)

// Result summarizes an operator tuning run.
type Result struct {
	Scheduler string
	// ExecSeconds is the (noise-free) execution time of the best program.
	ExecSeconds float64
	GFLOPS      float64
	// Trials is the number of measured trials — the budget the search spent.
	Trials int
	// SearchSeconds is the total simulated tuning time.
	SearchSeconds float64
	// BestSchedule describes the winning configuration.
	BestSchedule string
	// BestLog is the best-so-far execution time after each trial.
	BestLog []float64
	// WarmStarted reports whether a cached record from Options.ResumeFrom
	// seeded the run.
	WarmStarted bool
	// CostModelSamples is the cost model's final training-set size and
	// CostModelRefits the training-set versions committed — each is fitted if
	// and when something reads the model.
	CostModelSamples int
	CostModelRefits  int
	// Pretrained reports whether the cost model carried offline knowledge
	// (Options.PretrainFrom) before the first round.
	Pretrained bool
	// CacheHit reports that Options.Registry resolved the request and the
	// result was served from the best-schedule cache without measuring a
	// single trial.
	CacheHit bool
	// Cancelled reports that the run's context was cancelled before the
	// trial budget was spent. The result carries the partial best found so
	// far and the record log (Options.RecordLog) holds every committed
	// measurement, so a cancelled session is fully resumable.
	Cancelled bool
	// PlateauStopped reports that Options.Plateau ended the search early
	// because the convergence trajectory flatlined. The session went through
	// the same path as a cancellation — journal flushed, partial best
	// published to Options.Registry — but the run is a
	// completed search, not a cancelled one: Cancelled stays false.
	PlateauStopped bool
}

// checkPretrainMatches guards the PretrainFrom path: a journal with no
// record for any of the run's workloads on the target would silently produce
// a cold run, so it is an error instead (almost always a wrong shape, network
// or -target).
func checkPretrainMatches(db *tunelog.Database, path string, tasks []*search.Task) error {
	if db == nil {
		return nil
	}
	for _, t := range tasks {
		if _, ok := db.Best(t.Graph.Fingerprint(), t.Plat.Name); ok {
			return nil
		}
	}
	return fmt.Errorf("harl: no records in %q match the run's workloads on %s to pretrain from", path, tasks[0].Plat.Name)
}

// sessionSpec is what an entry point's registry-resolve step hands the session
// pipeline.
type sessionSpec struct {
	// tuner drives the run's tasks: a network's subgraphs, or the one
	// subgraph of an operator run.
	tuner *core.ParallelNetworkTuner
	// budget is the trial budget after the registry had its say.
	budget int
	// regDB holds the registry's reconstructing hits for the tasks, warm-started
	// like a resume log; nil when nothing resolved.
	regDB *tunelog.Database
	// broken holds the fingerprints whose registry record resolved but does
	// not reconstruct; the publish force-replaces those keys.
	broken map[string]bool
}

// sessionResult is what the session pipeline reports beside the tuner's own
// state.
type sessionResult struct {
	// cancelled: the caller's context cut the run short; plateauStopped: the
	// plateau policy did.
	cancelled, plateauStopped bool
	// warmed counts the tasks seeded from Options.ResumeFrom, pretrained the
	// tasks whose cost model started with offline knowledge.
	warmed, pretrained int
}

// session is the one pipeline behind every tuning entry point: resolve the
// hooks, check the pretraining log matches, seed the cost models, warm-start,
// attach the journal and progress/plateau, run the tuner, close the journal,
// verify a zero-budget replay was complete and publish the bests.
func (o Options) session(ctx context.Context, s sessionSpec) (sessionResult, error) {
	var res sessionResult
	hooks, closeHooks, err := o.hooks()
	// Error returns release whatever hooks opened; the success path checks
	// the journal's Close error below.
	defer closeHooks()
	if err != nil {
		return res, err
	}
	tasks := s.tuner.MT.Tasks
	plat := tasks[0].Plat
	if err := checkPretrainMatches(hooks.Pretrain, o.PretrainFrom, tasks); err != nil {
		return res, err
	}
	names := make([]string, len(tasks))
	for i, t := range tasks {
		names[i] = t.Graph.Name
	}
	sessCtx, progressHook, plateaued, stopPlateau := o.progressSession(ctx, names)
	defer stopPlateau()

	res.pretrained = s.tuner.SeedCostModels(hooks)
	if hooks.Warm != nil {
		res.warmed = s.tuner.WarmStart(hooks.Warm)
	}
	if s.regDB != nil {
		s.tuner.WarmStart(s.regDB)
	}
	if hooks.Journal != nil {
		s.tuner.AttachJournal(hooks.Journal, o.Seed)
	}
	s.tuner.SetProgress(progressHook)
	stopped := s.tuner.RunCtx(sessCtx, s.budget)
	if err := closeHooks(); err != nil {
		return res, err
	}
	if o.Trials == 0 {
		// Pure cache replay: nothing was measured, so every best present was
		// seeded — from ResumeFrom or the registry. Fail loudly instead of
		// returning an all-zero or +Inf result.
		seeded := 0
		for _, t := range tasks {
			if t.Best != nil {
				seeded++
			}
		}
		if seeded < len(tasks) {
			return res, fmt.Errorf("harl: cache replay incomplete: %d of %d workloads have cached records on %s (ResumeFrom %q) and there is no trial budget to measure the rest", seeded, len(tasks), plat.Name, o.ResumeFrom)
		}
	}
	// Publish whatever the session found, even a cancelled or plateau-stopped
	// partial best: publishing keeps better incumbents, so a partial can only
	// improve the key, and the next identical request is served from it.
	if o.Registry != nil {
		if err := publishTasks(o.Registry, tasks, plat.Name, o.Scheduler, o.Seed, s.broken); err != nil {
			return res, err
		}
	}
	res.plateauStopped = plateaued(stopped)
	res.cancelled = stopped && !res.plateauStopped
	return res, nil
}

// TuneOperator tunes one workload on a target.
func TuneOperator(w Workload, t Target, o Options) (Result, error) {
	return TuneOperatorContext(context.Background(), w, t, o)
}

// TuneOperatorContext is TuneOperator as a cancellable session. The context
// is checked at measurement-round boundaries: on cancellation the in-flight
// round commits, the record log holds every committed measurement, and the
// partial best comes back with Result.Cancelled set — a cancelled session is fully resumable
// via Options.ResumeFrom/PretrainFrom. An uncancelled run is byte-identical
// to TuneOperator. A run whose schedule space is smaller than the budget ends
// when the space is exhausted, with Result.Trials below Options.Trials.
func TuneOperatorContext(ctx context.Context, w Workload, t Target, o Options) (Result, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Result{}, err
	}
	var broken map[string]bool
	if o.Registry != nil {
		hit, ok, err := o.Registry.Lookup(w, t, o.Scheduler)
		switch {
		case ok:
			// The service contract: a known workload costs a lookup, not a
			// search — zero trials, zero simulated search time.
			return Result{
				Scheduler:    o.Scheduler,
				ExecSeconds:  hit.ExecSeconds,
				GFLOPS:       hit.GFLOPS,
				BestSchedule: hit.Schedule,
				CacheHit:     true,
			}, nil
		case errors.Is(err, ErrRecordBroken):
			// A reconstruct error (foreign registry) falls through to a fresh
			// tune, which force-replaces the broken record (its recorded time
			// may be unbeatably low, so keep-better publishing would preserve
			// the poison forever).
			broken = map[string]bool{w.sg.Fingerprint(): true}
		case err != nil:
			// A storage error is not repairable by tuning and must not be
			// mistaken for a miss.
			return Result{}, err
		}
	}
	tuner, err := core.NewOperatorTuner(w.sg, t.plat, o.Scheduler, o.MeasureK, o.Seed, o.Workers)
	if err != nil {
		return Result{}, err
	}
	res, err := o.session(ctx, sessionSpec{tuner: tuner, budget: o.Trials, broken: broken})
	if err != nil {
		return Result{}, err
	}
	task := tuner.MT.Tasks[0]
	out := Result{
		Scheduler:        o.Scheduler,
		Trials:           task.Trials,
		SearchSeconds:    tuner.CostSec(),
		BestLog:          append([]float64(nil), task.BestLog...),
		WarmStarted:      res.warmed > 0,
		CostModelSamples: task.Cost.Len(),
		CostModelRefits:  task.CostRefits,
		Pretrained:       task.Pretrained,
		Cancelled:        res.cancelled,
		PlateauStopped:   res.plateauStopped,
	}
	if task.Best != nil {
		out.ExecSeconds = task.Meas.Sim.Exec(task.Best)
		out.GFLOPS = w.sg.FLOPs() / out.ExecSeconds / 1e9
		out.BestSchedule = task.Best.String()
	}
	return out, nil
}

// SubgraphReport is one row of a network tuning breakdown.
type SubgraphReport struct {
	Name         string
	Weight       int
	ExecSeconds  float64
	Contribution float64
	Trials       int
}

// NetworkResult summarizes an end-to-end network tuning run.
type NetworkResult struct {
	Network string
	// EstimatedSeconds is Σ w_n·g_n; MeasuredSeconds adds the per-subgraph
	// communication overhead.
	EstimatedSeconds float64
	MeasuredSeconds  float64
	// Trials is the measured-trial count across all subgraph tasks.
	Trials        int
	SearchSeconds float64
	Breakdown     []SubgraphReport
	// WarmStarted is the number of subgraph tasks seeded from
	// Options.ResumeFrom's cached records.
	WarmStarted int
	// Pretrained is the number of subgraph tasks whose cost model carried
	// offline knowledge (Options.PretrainFrom) before the first round;
	// CostModelSamples and CostModelRefits sum the per-task training-set
	// sizes and training-set versions committed — each is fitted if and when
	// something reads the model.
	Pretrained       int
	CostModelSamples int
	CostModelRefits  int
	// CacheHits is the number of subgraph tasks served from Options.Registry.
	// When every subgraph hits, the search is skipped entirely and Trials is
	// zero.
	CacheHits int
	// Cancelled reports that the run's context was cancelled before the
	// budget was spent; the breakdown reflects the partial bests.
	Cancelled bool
	// PlateauStopped reports that Options.Plateau ended the search early on
	// a flatlined trajectory (see Result.PlateauStopped).
	PlateauStopped bool
}

// TuneNetwork tunes one of the paper's networks ("bert", "resnet50",
// "mobilenetv2") end to end.
func TuneNetwork(name string, batch int, t Target, o Options) (NetworkResult, error) {
	return TuneNetworkContext(context.Background(), name, batch, t, o)
}

// TuneNetworkContext is TuneNetwork as a cancellable session: the context is
// checked at wave boundaries, so cancellation leaves a flushed record log and
// the partial per-subgraph bests with NetworkResult.Cancelled set — resumable
// exactly like an operator session. An uncancelled run is byte-identical to TuneNetwork.
func TuneNetworkContext(ctx context.Context, name string, batch int, t Target, o Options) (NetworkResult, error) {
	o = o.withDefaults()
	net, err := networkByName(name, batch)
	if err != nil {
		return NetworkResult{}, err
	}
	if err := o.validate(); err != nil {
		return NetworkResult{}, err
	}
	regDB, cacheHits, broken, err := registryWarmDB(o.Registry, net.Subgraphs, t.plat, o.Scheduler)
	if err != nil {
		return NetworkResult{}, err
	}
	budget := o.Trials
	if o.Registry != nil && cacheHits == len(net.Subgraphs) {
		// Every subgraph is served from the registry: the whole network run
		// collapses to a lookup — zero measured trials.
		budget = 0
	}
	pnt, err := core.NewParallelNetworkTuner(net, t.plat, o.Scheduler, o.MeasureK, o.Seed, o.Workers)
	if err != nil {
		return NetworkResult{}, err
	}
	res, err := o.session(ctx, sessionSpec{tuner: pnt, budget: budget, regDB: regDB, broken: broken})
	if err != nil {
		return NetworkResult{}, err
	}
	out := NetworkResult{
		Network:          net.Name,
		EstimatedSeconds: pnt.EstimatedExec(),
		MeasuredSeconds:  pnt.MeasuredExec(),
		Trials:           pnt.Trials(),
		SearchSeconds:    pnt.CostSec(),
		WarmStarted:      res.warmed,
		Pretrained:       res.pretrained,
		CacheHits:        cacheHits,
		Cancelled:        res.cancelled,
		PlateauStopped:   res.plateauStopped,
	}
	for i, b := range pnt.Breakdown() {
		task := pnt.MT.Tasks[i]
		out.CostModelSamples += task.Cost.Len()
		out.CostModelRefits += task.CostRefits
		out.Breakdown = append(out.Breakdown, SubgraphReport{
			Name:         b.Name,
			Weight:       b.Weight,
			ExecSeconds:  b.BestExec,
			Contribution: b.Contribution,
			Trials:       task.Trials,
		})
	}
	return out, nil
}
