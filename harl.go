// Package harl is a from-scratch Go reproduction of "HARL: Hierarchical
// Adaptive Reinforcement Learning Based Auto Scheduler for Neural Networks"
// (Zhang, He, Zhang — ICPP 2022).
//
// The package exposes the system's public surface: workloads (the paper's
// Table-6 tensor operators, the three benchmark networks, and custom
// operators), targets (simulated CPU/GPU platforms), scheduler presets (HARL
// and the baselines it is compared against), and the tuning entry points.
// The paper's full experiment grid is reachable through RunExperiment; the
// per-experiment index lives in DESIGN.md and measured results in
// EXPERIMENTS.md.
//
// Quick start:
//
//	w := harl.GEMM(512, 512, 512, 1)
//	res, err := harl.TuneOperator(w, harl.CPU(), harl.Options{Scheduler: "harl", Trials: 300})
//	if err != nil { ... }
//	fmt.Printf("%.1f GFLOP/s in %d trials\n", res.GFLOPS, res.Trials)
package harl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"harl/internal/core"
	"harl/internal/costmodel"
	"harl/internal/experiments"
	"harl/internal/fleet"
	"harl/internal/hardware"
	"harl/internal/pretrain"
	"harl/internal/registry"
	"harl/internal/search"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/workload"
)

// Target is an execution platform the auto-scheduler tunes for.
type Target struct {
	plat *hardware.Platform
}

// CPU returns the paper's CPU platform (Intel Xeon 6226R class, 32 cores,
// AVX-512).
func CPU() Target { return Target{hardware.CPUXeon6226R()} }

// TargetByName resolves a platform short name (see Targets).
func TargetByName(name string) (Target, error) {
	if p := hardware.ByName(name); p != nil {
		return Target{p}, nil
	}
	return Target{}, fmt.Errorf("harl: unknown target %q (want %s)", name, strings.Join(hardware.PlatformNames(), " or "))
}

// Targets lists the accepted target platform names.
func Targets() []string { return hardware.PlatformNames() }

// Name returns the platform identifier.
func (t Target) Name() string { return t.plat.Name }

// Workload is a tuning target: one subgraph of tensor computation.
type Workload struct {
	sg *texpr.Subgraph
}

// Name returns the workload identifier.
func (w Workload) Name() string { return w.sg.Name }

// FLOPs returns the floating-point work of one execution.
func (w Workload) FLOPs() float64 { return w.sg.FLOPs() }

// Describe renders the workload's stage structure.
func (w Workload) Describe() string { return w.sg.String() }

// GEMM builds an M×K×N matrix multiplication workload (batch ≥ 1).
func GEMM(m, k, n, batch int) Workload {
	return Workload{workload.GEMM(fmt.Sprintf("GEMM-%dx%dx%d-b%d", m, k, n, batch), batch, m, k, n)}
}

// Conv1D builds a 1-D convolution workload with the paper's C1D parameter
// convention (L, Cin, Cout, kernel, stride, padding).
func Conv1D(l, cin, cout, kernel, stride, pad, batch int) Workload {
	return Workload{workload.Conv1D(fmt.Sprintf("C1D-%d-%d-%d-b%d", l, cin, cout, batch), batch, l, cin, cout, kernel, stride, pad)}
}

// Conv2D builds a 2-D convolution workload (H, W, Cin, Cout, kernel, stride,
// padding).
func Conv2D(h, w, cin, cout, kernel, stride, pad, batch int) Workload {
	return Workload{workload.Conv2D(fmt.Sprintf("C2D-%dx%d-%d-%d-b%d", h, w, cin, cout, batch), batch, h, w, cin, cout, kernel, stride, pad)}
}

// Conv3D builds a 3-D convolution workload.
func Conv3D(d, h, w, cin, cout, kernel, stride, pad, batch int) Workload {
	return Workload{workload.Conv3D(fmt.Sprintf("C3D-%dx%dx%d-%d-%d-b%d", d, h, w, cin, cout, batch), batch, d, h, w, cin, cout, kernel, stride, pad)}
}

// ConvT2D builds a transposed 2-D convolution workload.
func ConvT2D(h, w, cin, cout, kernel, stride, pad, batch int) Workload {
	return Workload{workload.ConvT2D(fmt.Sprintf("T2D-%dx%d-%d-%d-b%d", h, w, cin, cout, batch), batch, h, w, cin, cout, kernel, stride, pad)}
}

// TableSixWorkloads returns the four Table-6 configurations of an operator
// category ("GEMM-S", "GEMM-M", "GEMM-L", "C1D", "C2D", "C3D", "T2D").
func TableSixWorkloads(category string, batch int) []Workload {
	var out []Workload
	for _, sg := range workload.SuiteFor(category, batch) {
		out = append(out, Workload{sg})
	}
	return out
}

// CustomAxis describes one iteration axis of a custom operator.
type CustomAxis struct {
	Name   string
	Extent int
	Reduce bool
}

// CustomOp builds a single-stage custom compute workload from its iteration
// domain. flopsPerPoint is the FLOP count per point of the full domain;
// reuse marks the stage as data-reusing (enables tiling/cache-write sketch
// rules). Input accesses are synthesized: one tensor over the spatial axes
// and, if reductions exist, one over (reduce × last spatial) — the shape a
// contraction exhibits.
func CustomOp(name string, axes []CustomAxis, flopsPerPoint float64, reuse bool) (Workload, error) {
	st := &texpr.Stage{
		Name:          "custom",
		Kind:          texpr.ComputeHeavy,
		FLOPsPerPoint: flopsPerPoint,
		HasDataReuse:  reuse,
	}
	var spDims, redDims []texpr.AxisRef
	for _, ax := range axes {
		if ax.Reduce {
			st.Reduce = append(st.Reduce, texpr.Iter{Name: ax.Name, Extent: ax.Extent, Kind: texpr.Reduction})
			redDims = append(redDims, texpr.AxisRef{Iter: len(st.Reduce) - 1, Reduce: true})
		} else {
			st.Spatial = append(st.Spatial, texpr.Iter{Name: ax.Name, Extent: ax.Extent, Kind: texpr.Spatial})
			spDims = append(spDims, texpr.AxisRef{Iter: len(st.Spatial) - 1})
		}
	}
	if len(st.Spatial) == 0 {
		return Workload{}, fmt.Errorf("harl: custom op %q needs at least one spatial axis", name)
	}
	if len(st.Reduce) > 0 {
		st.HasReductionParallel = true
		inDims := append(append([]texpr.AxisRef{}, spDims[:len(spDims)-1]...), redDims...)
		st.Inputs = append(st.Inputs, texpr.Access{Tensor: "A", Dims: inDims})
		st.Inputs = append(st.Inputs, texpr.Access{Tensor: "B", Dims: append(append([]texpr.AxisRef{}, redDims...), spDims[len(spDims)-1])})
	} else {
		st.Inputs = append(st.Inputs, texpr.Access{Tensor: "A", Dims: spDims})
	}
	sg, err := texpr.NewSubgraph(name, 1, st)
	if err != nil {
		return Workload{}, err
	}
	return Workload{sg}, nil
}

// Options configures a tuning run.
type Options struct {
	// Scheduler is a preset name: "harl" (default), "hierarchical-rl",
	// "harl-nomab", "ansor", "flextensor" or "random".
	Scheduler string
	// Trials is the hardware-measurement budget (0 selects the default of
	// 320; a negative value performs no new measurements at all — the pure
	// cache-replay path, useful with ResumeFrom to read back a prior best
	// without spending a single trial).
	Trials int
	// MeasureK is the measured candidates per round (default 16).
	MeasureK int
	// Seed makes the run reproducible (default 1).
	Seed uint64
	// Workers sizes the tuning worker pool: 0 (the default) means 1, < 0
	// selects runtime.NumCPU(). It is a pool width and nothing else — every
	// value produces byte-identical results, journals and progress streams,
	// for TuneOperator and TuneNetwork alike; workers only cut wall-clock
	// time.
	Workers int
	// RecordLog, when non-empty, appends one JSONL tuning record per
	// measured trial to this file (created if missing). Records arrive in
	// measurement commit order, which is deterministic for every worker
	// count, so journals of equal runs are byte-identical.
	RecordLog string
	// ResumeFrom, when non-empty, warm-starts the run from an existing
	// record log: each workload is seeded with its best cached schedule for
	// the target, which is never re-measured. It may name the same file as
	// RecordLog (the log is read before tuning starts and only new
	// measurements are appended).
	ResumeFrom string
	// PretrainFrom, when non-empty, pretrains each task's cost model before
	// search starts by replaying the record log's matching measurements
	// (features are regenerated deterministically from the serialized
	// schedule steps). Unlike ResumeFrom this is model-only: no schedules
	// are seeded or skipped — the reward signal and the top-K ranking are
	// simply informed from round one, so the run reaches good programs in
	// fewer trials. It composes with ResumeFrom and preserves the
	// worker-count determinism contract.
	PretrainFrom string
	// ModelIn, when non-empty, loads a cost-model checkpoint (written by
	// ModelOut or harl-train) into every structurally compatible task —
	// equal feature dimension — before search starts; each task refits its
	// own copy as new measurements arrive, and incompatible tasks keep their
	// cold model.
	ModelIn string
	// ModelOut, when non-empty, saves the run's trained cost model as a
	// versioned checkpoint after tuning: the task's model for an operator
	// run; for a network run, the merged model over the structurally
	// compatible majority of its subgraph tasks (feature dimensions vary
	// across workload structures, and model knowledge only transfers
	// between equal dimensions).
	ModelOut string
	// Registry, when non-nil, puts a persistent best-schedule cache in front
	// of the tuner. An operator run whose (workload, target, scheduler) key
	// resolves returns the cached best instantly — zero measured trials,
	// Result.CacheHit set — and, because no session runs, produces no
	// session artifacts: RecordLog gains no records and ModelOut is not
	// written. A network run seeds every resolving subgraph and skips the
	// search entirely when all of them hit. After the run, the bests found
	// are published back — including the partial bests of a cancelled or
	// plateau-stopped session (publishing keeps better incumbents, so a
	// partial best can only improve a key, never weaken it) — and the next
	// identical request is a hit. Open one with OpenRegistry; a single
	// Registry may be shared by concurrent tuning sessions in one process
	// (the harl-serve daemon does).
	Registry *Registry
	// OnProgress, when non-nil, receives one ProgressEvent per committed
	// round/wave, synchronously on the tuning goroutine, in an order that is
	// byte-identical for every worker-pool width (see ProgressEvent). The
	// harl-serve daemon fans this stream out over SSE; harl-tune -progress
	// renders it locally.
	OnProgress func(ProgressEvent)
	// Plateau, when its Window is > 0, stops the session early once the
	// convergence trajectory flatlines (see Plateau): the session takes the
	// checkpoint-on-cancel path and the result reports PlateauStopped.
	Plateau Plateau
	// Fleet, when non-empty, lists harl-worker endpoints ("host:port" or
	// full URLs) and fans the run's hardware-measurement batches out to
	// them. Remote measurement reproduces the in-process values bit-exactly
	// (the noise function is pure in schedule, repetition index and noise
	// seed, and all commit-order bookkeeping stays local), so journals and
	// results are byte-identical to an in-process run — a dead or slow
	// worker costs throughput, never correctness: failed batches are retried
	// on the rotation and finally measured in-process. The run dials its own
	// pool and closes it when done; a daemon serving many runs should share
	// one pool via FleetPool instead.
	Fleet []string
	// FleetPool, when non-nil, attaches an already-dialed shared fleet (see
	// DialFleet) — one health-checked worker pool serving every run, which
	// is how harl-serve wires it. Takes precedence over Fleet. The caller
	// keeps ownership: Close is never called by the run.
	FleetPool *Fleet
}

func (o Options) withDefaults() Options {
	if o.Scheduler == "" {
		o.Scheduler = "harl"
	}
	if o.Trials == 0 {
		o.Trials = 320
	} else if o.Trials < 0 {
		o.Trials = 0
	}
	if o.MeasureK <= 0 {
		o.MeasureK = 16
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// validate rejects a bad preset name or option combination before any file
// is opened, so a bad request cannot leak an opened (and possibly newly
// created) record log.
func (o Options) validate() error {
	_, _, err := core.EngineFactory(o.Scheduler)
	return err
}

// Schedulers lists the available scheduler presets.
func Schedulers() []string { return core.SchedulerNames() }

// SchedulerByName validates a scheduler preset name, echoing it back or
// returning an error that lists the valid presets — the one place the
// valid-name wording lives (harl-tune and the serving layer both use it).
func SchedulerByName(name string) (string, error) {
	if slices.Contains(Schedulers(), name) {
		return name, nil
	}
	return "", fmt.Errorf("harl: unknown scheduler %q (want %s)", name, strings.Join(Schedulers(), ", "))
}

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
	// (Options.PretrainFrom or Options.ModelIn) before the first round.
	Pretrained bool
	// CacheHit reports that Options.Registry resolved the request and the
	// result was served from the best-schedule cache without measuring a
	// single trial.
	CacheHit bool
	// Cancelled reports that the run's context was cancelled before the
	// trial budget was spent. The result carries the partial best found so
	// far; the record log (Options.RecordLog) holds every committed
	// measurement and the model checkpoint (Options.ModelOut) was still
	// written, so a cancelled session is fully resumable.
	Cancelled bool
	// PlateauStopped reports that Options.Plateau ended the search early
	// because the convergence trajectory flatlined. The session went through
	// the same checkpoint path as a cancellation — journal flushed, model
	// saved, partial best published to Options.Registry — but the run is a
	// completed search, not a cancelled one: Cancelled stays false.
	PlateauStopped bool
}

// hooks resolves the Options journal fields into core tuning hooks plus a
// close function for what it opened — the record log and a privately dialed
// fleet (a no-op when neither was). The close function is valid on error
// returns too and may be called twice. The resume log is read before the
// record log is opened for append, so the two may name the same file.
func (o Options) hooks() (core.TuneHooks, func() error, error) {
	var h core.TuneHooks
	closeFn := func() error { return nil }
	if o.ResumeFrom != "" {
		db, err := tunelog.LoadFile(o.ResumeFrom)
		if err != nil {
			return h, closeFn, err
		}
		h.Warm = db
	}
	if o.PretrainFrom != "" {
		// The pretrain log may equal the resume log; load it once.
		if o.PretrainFrom == o.ResumeFrom {
			h.Pretrain = h.Warm
		} else {
			db, err := tunelog.LoadFile(o.PretrainFrom)
			if err != nil {
				return h, closeFn, err
			}
			h.Pretrain = db
		}
	}
	if o.ModelIn != "" {
		m, err := costmodel.LoadFile(o.ModelIn)
		if err != nil {
			return h, closeFn, err
		}
		h.Model = m
	}
	if o.RecordLog != "" {
		jr, err := tunelog.OpenJournal(o.RecordLog)
		if err != nil {
			return h, closeFn, err
		}
		h.Journal = jr
		closeFn = jr.Close
	}
	if o.FleetPool != nil {
		h.Evaluators = o.FleetPool.pool
	} else if len(o.Fleet) > 0 {
		p, err := fleet.NewPool(o.Fleet, fleet.Config{})
		if err != nil {
			return h, closeFn, err
		}
		h.Evaluators = p
		inner := closeFn
		closeFn = func() error {
			p.Close()
			return inner()
		}
	}
	return h, closeFn, nil
}

// checkPretrainMatches guards the PretrainFrom path: a journal with no
// record for any of the run's workloads on the target would silently produce
// a cold run, so — matching TrainModel's behavior — it is an error instead
// (almost always a wrong shape, network or -target).
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

// saveModel writes a cost model checkpoint for Options.ModelOut through the
// Checkpointer interface (skipping silently is not an option: a run asked to
// produce an artifact must produce it or fail).
func saveModel(path string, cm costmodel.CostModel) error {
	ck, ok := cm.(costmodel.Checkpointer)
	if !ok {
		return fmt.Errorf("harl: cost model %T cannot be checkpointed", cm)
	}
	return costmodel.SaveFile(path, ck)
}

// Registry is an open persistent best-schedule store: the amortization layer
// that turns tuning from a batch job into a service. It maps (workload
// fingerprint, target, scheduler) to the best schedule ever published for
// that key, durably (a journal plus an atomically-updated index under one
// directory — see the README registry-layout section). It is safe for
// concurrent use in-process, and across processes concurrent publishers
// serialize behind a blocking per-publish lock on the journal — a CLI can
// publish into the registry a running daemon serves from.
type Registry struct {
	reg *registry.Registry
}

// OpenRegistry opens (creating if needed) a best-schedule registry rooted at
// dir, auto-detecting its storage layout. Opening never writes journal state,
// so read-only consumers can open a registry another process is publishing
// into.
func OpenRegistry(dir string) (*Registry, error) {
	return OpenRegistryOptions(dir, RegistryOptions{})
}

// RegistryOptions select a registry's storage layout. The zero value
// auto-detects it (an existing sharded registry opens sharded, anything else
// single-file).
type RegistryOptions struct {
	// Layout is "", "auto", "single" or "sharded". Opening an existing
	// single-file registry with "sharded" migrates it in place (the v1
	// journal is kept beside the shards as journal.v1.jsonl).
	Layout string
}

// ParseRegistryLayout maps a layout flag value to the internal layout,
// rejecting unknown names — shared by OpenRegistryOptions and the CLIs.
func ParseRegistryLayout(s string) (registry.Layout, error) {
	switch s {
	case "", "auto":
		return registry.LayoutAuto, nil
	case "single":
		return registry.LayoutSingle, nil
	case "sharded":
		return registry.LayoutSharded, nil
	}
	return registry.LayoutAuto, fmt.Errorf("harl: unknown registry layout %q (valid: auto, single, sharded)", s)
}

// OpenRegistryOptions is OpenRegistry with an explicit layout.
func OpenRegistryOptions(dir string, o RegistryOptions) (*Registry, error) {
	layout, err := ParseRegistryLayout(o.Layout)
	if err != nil {
		return nil, err
	}
	r, err := registry.OpenOptions(dir, registry.Options{Layout: layout})
	if err != nil {
		return nil, err
	}
	return &Registry{reg: r}, nil
}

// ErrRecordBroken marks a registry hit whose stored schedule no longer
// reconstructs (a foreign or stale registry). Callers treat it as a
// repairable miss — the tune path falls through to a fresh search that
// force-replaces the poisoned key — unlike any other Lookup error, which
// reports the registry itself unreadable.
var ErrRecordBroken = errors.New("harl: registry record does not reconstruct")

// SavedSchedule is a registry hit rendered for consumption: the stored
// record plus the reconstructed schedule and its noise-free performance.
type SavedSchedule struct {
	Record Record
	// ExecSeconds is the noise-free simulator time of the stored schedule
	// (the same quantity a fresh tuning run reports), GFLOPS the
	// corresponding throughput.
	ExecSeconds float64
	GFLOPS      float64
	// Schedule is the human-readable configuration.
	Schedule string
}

// Lookup resolves the workload and reconstructs the stored schedule against
// the workload's regenerated sketch list. A record whose steps no longer
// deserialize (a foreign or stale registry) is a miss with an error wrapping
// ErrRecordBroken; any other error means the registry storage itself failed
// to read and the miss cannot be trusted.
func (r *Registry) Lookup(w Workload, t Target, scheduler string) (SavedSchedule, bool, error) {
	rec, ok, err := r.reg.Resolve(w.sg.Fingerprint(), t.plat.Name, scheduler)
	if err != nil {
		return SavedSchedule{}, false, fmt.Errorf("harl: registry read: %w", err)
	}
	if !ok {
		return SavedSchedule{}, false, nil
	}
	s, err := rec.Schedule(sketch.Generate(w.sg))
	if err != nil {
		return SavedSchedule{}, false, fmt.Errorf("%w: %s: %v", ErrRecordBroken, w.Name(), err)
	}
	exec := hardware.NewSimulator(t.plat).Exec(s)
	return SavedSchedule{
		Record:      fromInternalRecord(rec),
		ExecSeconds: exec,
		GFLOPS:      w.sg.FLOPs() / exec / 1e9,
		Schedule:    s.String(),
	}, true, nil
}

// ImportJournal publishes every record of a tuning-record log into the
// registry, returning how many improved a key — how a daemon boots its cache
// from committed journals.
func (r *Registry) ImportJournal(path string) (int, error) { return r.reg.ImportJournal(path) }

// Len returns the number of (workload, target, scheduler) keys with a best
// record.
func (r *Registry) Len() int { return r.reg.Len() }

// RegistryStats is a snapshot of the registry's storage counters — the
// numbers behind the harl_registry_* storage series at harl-serve's /metrics.
type RegistryStats = registry.Stats

// Layout reports the registry's storage layout ("single" or "sharded").
func (r *Registry) Layout() string { return string(r.reg.Layout()) }

// Stats returns a snapshot of the registry's storage counters.
func (r *Registry) Stats() RegistryStats { return r.reg.Stats() }

// Close releases the registry: pending batched publishes flush durably
// first. Publishes hold their file lock only for the duration of each
// append, so Close is cheap and never blocks on other processes.
func (r *Registry) Close() error { return r.reg.Close() }

// Fleet is an open connection to a pool of harl-worker measurement daemons:
// the distributed-measurement layer. Attach one to a run with
// Options.FleetPool (a daemon shares one Fleet across every run it serves)
// or let Options.Fleet dial a private one per run. The pool health-checks
// its workers in the background, ejects ones that keep failing, readmits
// them when they recover, and routes each task only to workers that serve
// its target platform — a heterogeneous fleet can hold cpu-only and
// gpu-only workers side by side. A Fleet with every worker down still
// serves: batches fall back to in-process measurement with identical
// results.
type Fleet struct {
	pool *fleet.Pool
}

// DialFleet opens a fleet over the worker endpoints (30s batch timeout, 2
// retries, 2s health-check period). Endpoints are "host:port" or full URLs.
// Dialing succeeds even while every worker is unreachable (they are probed
// and admitted in the background); it fails only on an empty endpoint list.
func DialFleet(endpoints []string) (*Fleet, error) {
	p, err := fleet.NewPool(endpoints, fleet.Config{})
	if err != nil {
		return nil, err
	}
	return &Fleet{pool: p}, nil
}

// Close stops the fleet's health-check loop. Stats stay readable.
func (f *Fleet) Close() { f.pool.Close() }

// FleetStats is a snapshot of a fleet's dispatch counters — the numbers
// behind the harl_fleet_* series at harl-serve's /metrics.
type FleetStats = fleet.Stats

// Stats snapshots the fleet's counters.
func (f *Fleet) Stats() FleetStats { return f.pool.Stats() }

// publishTasks publishes every tuned task's best into the registry. Warm- or
// cache-seeded bests re-publish as no-ops (the registry keeps incumbents on
// ties), so only genuine improvements change the index. Tasks whose
// fingerprint appears in broken force-replace their key: the incumbent there
// is a poisoned record (resolves but does not reconstruct) that keep-better
// publishing could never depose.
func publishTasks(reg *Registry, tasks []*search.Task, target, scheduler string, seed uint64, broken map[string]bool) error {
	for _, t := range tasks {
		if t.Best == nil {
			continue
		}
		fp := t.Graph.Fingerprint()
		rec := tunelog.NewRecordFP(fp, target, scheduler, t.Best, t.BestExec, t.Trials, seed)
		var err error
		if broken[fp] {
			err = reg.reg.Replace(rec)
		} else {
			_, err = reg.reg.Publish(rec)
		}
		if err != nil {
			return fmt.Errorf("harl: publish to registry: %w", err)
		}
	}
	return nil
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
// verify a zero-budget replay was complete, save the model checkpoint and
// publish the bests.
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
	if o.ModelOut != "" {
		// Written for every session that ran, including one cancelled before
		// its first round (an empty model round-trips fine) — only an
		// operator registry hit, which runs no session, skips it.
		if err := saveModel(o.ModelOut, s.tuner.CostModel()); err != nil {
			return res, err
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
// round commits, the record log holds every committed measurement, the model
// checkpoint (Options.ModelOut) is still written, and the partial best comes
// back with Result.Cancelled set — a cancelled session is fully resumable
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
		if err == nil && ok {
			// The service contract: a known workload costs a lookup, not a
			// search — zero trials, zero simulated search time.
			return Result{
				Scheduler:    o.Scheduler,
				ExecSeconds:  hit.ExecSeconds,
				GFLOPS:       hit.GFLOPS,
				BestSchedule: hit.Schedule,
				CacheHit:     true,
			}, nil
		}
		// A reconstruct error (foreign registry) falls through to a fresh
		// tune, which force-replaces the broken record (its recorded time
		// may be unbeatably low, so keep-better publishing would preserve
		// the poison forever). A storage error is not repairable by tuning
		// and must not be mistaken for a miss.
		if err != nil && !errors.Is(err, ErrRecordBroken) {
			return Result{}, err
		}
		if err != nil {
			broken = map[string]bool{w.sg.Fingerprint(): true}
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
	// offline knowledge (Options.PretrainFrom or Options.ModelIn) before the
	// first round; CostModelSamples and CostModelRefits sum the per-task
	// training-set sizes and training-set versions committed — each is fitted
	// if and when something reads the model.
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

// networkByName resolves one of the paper's network names.
func networkByName(name string, batch int) (*workload.Network, error) {
	switch name {
	case "bert", "BERT":
		return workload.BERT(batch), nil
	case "resnet50", "resnet", "ResNet":
		return workload.ResNet50(batch), nil
	case "mobilenetv2", "mobilenet", "MobileNet":
		return workload.MobileNetV2(batch), nil
	}
	return nil, fmt.Errorf("harl: unknown network %q", name)
}

// registryWarmDB collects the registry's best records for the network's
// subgraphs under the run's scheduler into an in-memory database — the same
// shape the resume cache uses — so registry hits ride the existing
// warm-start machinery (seeded bests are never re-measured). A record that
// no longer reconstructs against the subgraph's regenerated sketches is not
// a hit: counting it would let a full-hit run skip the search with nothing
// actually seeded; its fingerprint is reported in broken instead, so the
// run's publish force-replaces the poisoned key. It returns the database
// (nil when nothing resolved) and the number of subgraphs that hit. A
// registry storage error aborts the warm-up: its misses cannot be trusted.
func registryWarmDB(reg *Registry, graphs []*texpr.Subgraph, plat *hardware.Platform, scheduler string) (db *tunelog.Database, hits int, broken map[string]bool, err error) {
	if reg == nil {
		return nil, 0, nil, nil
	}
	db = tunelog.NewDatabase()
	for _, sg := range graphs {
		rec, ok, rerr := reg.reg.Resolve(sg.Fingerprint(), plat.Name, scheduler)
		if rerr != nil {
			return nil, 0, nil, fmt.Errorf("harl: registry read: %w", rerr)
		}
		if !ok {
			continue
		}
		if _, err := rec.Schedule(sketch.Generate(sg)); err != nil {
			if broken == nil {
				broken = make(map[string]bool)
			}
			broken[sg.Fingerprint()] = true
			continue
		}
		db.Add(rec)
		hits++
	}
	if hits == 0 {
		db = nil
	}
	return db, hits, broken, nil
}

// TuneNetwork tunes one of the paper's networks ("bert", "resnet50",
// "mobilenetv2") end to end.
func TuneNetwork(name string, batch int, t Target, o Options) (NetworkResult, error) {
	return TuneNetworkContext(context.Background(), name, batch, t, o)
}

// TuneNetworkContext is TuneNetwork as a cancellable session: the context is
// checked at wave boundaries, so cancellation leaves a flushed record log, a
// saved model checkpoint (Options.ModelOut) and the partial per-subgraph
// bests with NetworkResult.Cancelled set — resumable exactly like an operator
// session. An uncancelled run is byte-identical to TuneNetwork.
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

// ExperimentConfig mirrors the experiment harness configuration; the zero
// value selects the scaled defaults.
type ExperimentConfig struct {
	Seed               uint64
	OperatorBudget     int
	MeasureK           int
	ConfigsPerCategory int
	Batches            []int
	NetworkBudgetScale float64
	NetworkPlatforms   []string
	// Workers sizes the tuning worker pool used inside every experiment
	// (< 0 selects runtime.NumCPU()). Experiment outputs are byte-identical
	// for every worker count; workers only cut wall-clock time.
	Workers int
	Full    bool
}

func (c ExperimentConfig) resolve() experiments.Config {
	base := experiments.Scaled()
	if c.Full {
		base = experiments.Full()
	}
	if c.Seed != 0 {
		base.Seed = c.Seed
	}
	if c.OperatorBudget > 0 {
		base.OperatorBudget = c.OperatorBudget
	}
	if c.MeasureK > 0 {
		base.MeasureK = c.MeasureK
	}
	if c.ConfigsPerCategory > 0 {
		base.ConfigsPerCategory = c.ConfigsPerCategory
	}
	if len(c.Batches) > 0 {
		base.Batches = c.Batches
	}
	if c.NetworkBudgetScale > 0 {
		base.NetworkBudgetScale = c.NetworkBudgetScale
	}
	if len(c.NetworkPlatforms) > 0 {
		base.NetworkPlatforms = c.NetworkPlatforms
	}
	if c.Workers != 0 {
		base.Workers = c.Workers
	}
	return base
}

// Experiments lists the reproducible table/figure identifiers.
func Experiments() []string {
	return []string{"fig1a", "fig1b", "fig1c", "tab1", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "tab4", "fig10", "tab7", "tab8"}
}

// RunExperiment regenerates one paper table or figure, writing the rows to w.
// fig5/fig6 and fig8/fig9 share their underlying runs and are emitted
// together by either id.
func RunExperiment(id string, c ExperimentConfig, w io.Writer) error {
	cfg := c.resolve()
	// Reset the measurement accounting so a following WriteBenchSummary
	// reports only this experiment's runs.
	experiments.ResetObservations()
	switch id {
	case "fig1a":
		experiments.GreedyAllocation(cfg, w)
	case "fig1b":
		experiments.UniformImprovement(cfg, w)
	case "fig1c":
		experiments.FixedLengthWaste(cfg, w)
	case "tab1":
		experiments.Table1(w)
	case "fig5", "fig6":
		experiments.OperatorGrid(cfg, w)
	case "fig7a":
		experiments.AblationTrajectory(cfg, w)
	case "fig7b":
		experiments.CriticalSteps(cfg, w)
	case "fig8", "fig9":
		experiments.NetworkGrid(cfg, w)
	case "tab4":
		experiments.Table4(cfg, w)
	case "fig10":
		experiments.AllocationAblation(cfg, w)
	case "tab7":
		experiments.LambdaSensitivity(cfg, w)
	case "tab8":
		experiments.RhoSensitivity(cfg, w)
	default:
		return fmt.Errorf("harl: unknown experiment %q (known: %v)", id, Experiments())
	}
	return nil
}

// WriteBenchSummary writes the machine-readable output of one experiment run
// as BENCH_<id>.json under dir and returns the file path. The summary embeds
// the resolved configuration, the measurement accounting and the experiment's
// rendered output — all seed-deterministic, no timing.
func WriteBenchSummary(dir, id string, c ExperimentConfig, output string) (string, error) {
	return experiments.NewSummary(id, c.resolve(), output).WriteFile(dir)
}

// Record is one measured tuning trial of a persistent record log (see the
// record-log section of README.md for the schema).
type Record struct {
	// SchemaVersion is the record schema version (currently 1).
	SchemaVersion int
	// Workload is the workload fingerprint: the workload name plus a stable
	// structural hash, transferable between runs and processes.
	Workload string
	// Target is the platform name the trial was measured on.
	Target string
	// Scheduler is the preset that produced the measurement.
	Scheduler string
	// Steps is the schedule's serialized transform steps; it round-trips
	// byte-identically through a journal append/load cycle.
	Steps string
	// ExecSeconds is the noisy measured execution time.
	ExecSeconds float64
	// Trial is the task-local 1-based trial index.
	Trial int
	// Seed is the run's root random seed.
	Seed uint64
}

func fromInternalRecord(r tunelog.Record) Record {
	return Record{
		SchemaVersion: r.V,
		Workload:      r.Workload,
		Target:        r.Target,
		Scheduler:     r.Scheduler,
		Steps:         r.Steps,
		ExecSeconds:   r.ExecSec,
		Trial:         r.Trial,
		Seed:          r.Seed,
	}
}

// LoadRecords reads a tuning-record log, returning its distinct records in
// file order. Corrupt or truncated lines are skipped (a journal damaged by a
// crash still yields its intact prefix), and exact duplicate appends collapse
// to one record.
func LoadRecords(path string) ([]Record, error) {
	db, err := tunelog.LoadFile(path)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, db.Size())
	for _, r := range db.Records() {
		out = append(out, fromInternalRecord(r))
	}
	return out, nil
}

// BestRecord returns the lowest-execution-time record of the log for the
// workload on the target, and whether one exists.
func BestRecord(path string, w Workload, t Target) (Record, bool, error) {
	db, err := tunelog.LoadFile(path)
	if err != nil {
		return Record{}, false, err
	}
	rec, ok := db.Best(w.sg.Fingerprint(), t.plat.Name)
	if !ok {
		return Record{}, false, nil
	}
	return fromInternalRecord(rec), true, nil
}

// Fingerprint returns the workload's stable record-log identity (the
// Workload field of its Records).
func (w Workload) Fingerprint() string { return w.sg.Fingerprint() }

// ParseShape parses a CLI-style comma-separated shape ("1024,1024,1024")
// into the dims OperatorWorkload expects — the parsing shared by harl-tune
// and harl-train.
func ParseShape(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("harl: missing shape")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("harl: bad shape element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// OperatorWorkload builds an operator workload from its CLI-style kind and
// shape ("gemm": M,K,N; "c1d": L,Cin,Cout,K,stride,pad; "c2d"/"t2d":
// H,W,Cin,Cout,K,stride,pad; "c3d": D,H,W,Cin,Cout,K,stride,pad) — the
// parsing shared by harl-tune and harl-train.
func OperatorWorkload(op string, dims []int, batch int) (Workload, error) {
	need := func(n int) error {
		if len(dims) != n {
			return fmt.Errorf("harl: operator %q needs %d shape values, got %d", op, n, len(dims))
		}
		return nil
	}
	switch op {
	case "gemm":
		if err := need(3); err != nil {
			return Workload{}, err
		}
		return GEMM(dims[0], dims[1], dims[2], batch), nil
	case "c1d":
		if err := need(6); err != nil {
			return Workload{}, err
		}
		return Conv1D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], batch), nil
	case "c2d":
		if err := need(7); err != nil {
			return Workload{}, err
		}
		return Conv2D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6], batch), nil
	case "c3d":
		if err := need(8); err != nil {
			return Workload{}, err
		}
		return Conv3D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6], dims[7], batch), nil
	case "t2d":
		if err := need(7); err != nil {
			return Workload{}, err
		}
		return ConvT2D(dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6], batch), nil
	}
	return Workload{}, fmt.Errorf("harl: unknown operator kind %q (want gemm, c1d, c2d, c3d or t2d)", op)
}

// NetworkWorkloads returns the subgraph workloads of one of the paper's
// networks — the workload set harl-train fits a network-wide model over.
func NetworkWorkloads(name string, batch int) ([]Workload, error) {
	net, err := networkByName(name, batch)
	if err != nil {
		return nil, err
	}
	out := make([]Workload, 0, len(net.Subgraphs))
	for _, sg := range net.Subgraphs {
		out = append(out, Workload{sg})
	}
	return out, nil
}

// TrainStats summarizes an offline cost-model fit (TrainModel): the journal
// records replayed and the workloads they cover, the records skipped, and the
// resulting training-set size and whether it trained.
type TrainStats = pretrain.Stats

// TrainModel fits a cost model offline from a tuning-record log — replaying
// every record that matches one of the workloads on the target, regenerating
// features deterministically from the serialized schedule steps — and writes
// the versioned checkpoint artifact to outPath. The artifact feeds
// Options.ModelIn (or another TrainModel run's journal feeds
// Options.PretrainFrom directly). Training is deterministic: the same
// journal always produces a byte-identical checkpoint.
func TrainModel(logPath string, ws []Workload, t Target, outPath string) (TrainStats, error) {
	if len(ws) == 0 {
		return TrainStats{}, fmt.Errorf("harl: no workloads to train over")
	}
	db, err := tunelog.LoadFile(logPath)
	if err != nil {
		return TrainStats{}, err
	}
	graphs := make([]*texpr.Subgraph, len(ws))
	for i, w := range ws {
		graphs[i] = w.sg
	}
	m, st := pretrain.FitModel(db, graphs, t.plat.Name, costmodel.DefaultParams())
	if st.Records == 0 {
		return st, fmt.Errorf("harl: no records in %q match the given workloads on %s", logPath, t.Name())
	}
	return st, costmodel.SaveFile(outPath, m)
}
