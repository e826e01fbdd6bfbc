package harl

import (
	"fmt"
	"slices"
	"strings"

	"harl/internal/core"
	"harl/internal/tunelog"
)

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
	// time. At every value, each PPO update also trains its critic on a
	// second goroutine beside its actor, with the same bit-identical result.
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
	// Registry, when non-nil, puts a persistent best-schedule cache in front
	// of the tuner. An operator run whose (workload, target, scheduler) key
	// resolves returns the cached best instantly — zero measured trials,
	// Result.CacheHit set — and, because no session runs, RecordLog gains no
	// records. A network run seeds every resolving subgraph and skips the
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
	// convergence trajectory flatlines (see Plateau): the session ends the
	// way a cancelled one does and the result reports PlateauStopped.
	Plateau Plateau
	// FleetPool, when non-nil, measures the run's batches on a dialed fleet
	// (see DialFleet) — one health-checked worker pool can serve every run,
	// which is how harl-serve wires it. Journals and results stay
	// byte-identical to an in-process run. The caller keeps ownership: Close
	// is never called by the run.
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

// hooks resolves the Options journal fields into core tuning hooks plus a
// close function for what it opened — the record log (a no-op when none
// was). The close function is valid on error returns too and may be called
// twice. The resume log is read before the record log is opened for append,
// so the two may name the same file.
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
	}
	return h, closeFn, nil
}
