package harl

import (
	"errors"
	"fmt"

	"harl/internal/hardware"
	"harl/internal/registry"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/tunelog"
)

// Registry is an open persistent best-schedule store: the amortization layer
// that turns tuning from a batch job into a service. It maps (workload
// fingerprint, target, scheduler) to the best schedule ever published for
// that key, kept in append-only journals under one directory (see the README
// "Registry storage" section). It is safe for concurrent use in-process, and
// across processes concurrent publishers serialize behind blocking
// per-append file locks — a CLI can publish into the registry a running
// daemon serves from.
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

// RegistryOptions select how a registry opens. The zero value auto-detects
// the layout: an existing single-file (v1) registry opens single-file and is
// left untouched, anything else — a new registry included — opens sharded.
type RegistryOptions struct {
	// Layout is "", "auto" or "sharded". Opening an existing single-file
	// registry with "sharded" migrates it in place (the v1 journal is kept
	// beside the shards as journal.v1.jsonl).
	Layout string
}

// OpenRegistryOptions is OpenRegistry with an explicit layout; an unknown
// layout name is an error naming the valid ones.
func OpenRegistryOptions(dir string, o RegistryOptions) (*Registry, error) {
	var layout registry.Layout
	switch o.Layout {
	case "", "auto":
		layout = registry.LayoutAuto
	case "sharded":
		layout = registry.LayoutSharded
	default:
		return nil, fmt.Errorf("harl: unknown registry layout %q (valid: auto, sharded)", o.Layout)
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
	rec, s, ok, err := r.resolve(w.sg, sketch.Generate(w.sg), t.plat.Name, scheduler)
	if !ok {
		return SavedSchedule{}, false, err
	}
	exec := hardware.NewSimulator(t.plat).Exec(s)
	return SavedSchedule{
		Record:      fromInternalRecord(rec),
		ExecSeconds: exec,
		GFLOPS:      w.sg.FLOPs() / exec / 1e9,
		Schedule:    s.String(),
	}, true, nil
}

// resolve is the registry's one reconstruct policy, shared by Lookup and
// registryWarmDB: resolve the subgraph's key, then rebuild the stored
// schedule against sketches, the subgraph's sketch list (a task's own, or a
// freshly generated one for Lookup). ok reports a record that reconstructs. A
// record that does not is a miss with an error wrapping ErrRecordBroken; any
// other error is a storage read failure.
func (r *Registry) resolve(sg *texpr.Subgraph, sketches []*sketch.Sketch, target, scheduler string) (tunelog.Record, *schedule.Schedule, bool, error) {
	rec, ok, err := r.reg.Resolve(sg.Fingerprint(), target, scheduler)
	if err != nil {
		return rec, nil, false, fmt.Errorf("harl: registry read: %w", err)
	}
	if !ok {
		return rec, nil, false, nil
	}
	s, err := rec.Schedule(sketches)
	if err != nil {
		return rec, nil, false, fmt.Errorf("%w: %s: %v", ErrRecordBroken, sg.Name, err)
	}
	return rec, s, true, nil
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

// Close releases the registry once in-flight publishes have appended.
// Publishes hold their file lock only for the duration of each append, so
// Close is cheap and never blocks on other processes.
func (r *Registry) Close() error { return r.reg.Close() }

// publishTasks publishes every tuned task's best into the registry in one
// batch. Warm- or cache-seeded bests re-publish as no-ops (the registry keeps
// incumbents on ties), so only genuine improvements change the index. Tasks
// whose fingerprint appears in broken publish with Force set: the incumbent
// there is a poisoned record (resolves but does not reconstruct) that
// keep-better publishing could never depose.
func publishTasks(reg *Registry, tasks []*search.Task, target, scheduler string, seed uint64, broken map[string]bool) error {
	var recs []tunelog.Record
	for _, t := range tasks {
		if t.Best == nil {
			continue
		}
		rec := tunelog.NewRecord(t.Graph, target, scheduler, t.Best, t.BestExec, t.Trials, seed)
		rec.Force = broken[rec.Workload]
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil
	}
	if _, err := reg.reg.PublishBatch(recs); err != nil {
		return fmt.Errorf("harl: publish to registry: %w", err)
	}
	return nil
}

// registryWarmDB is the registry's resolve-first policy for a session, for
// operator and network runs alike: it resolves every task against its own
// sketches under the run's scheduler and collects the hits into an in-memory
// database — the shape the resume cache has — so they seed the tasks through
// Task.WarmStartFrom, and a seeded best is never re-measured. A record that
// no longer reconstructs is not a hit: counting it would let a full hit skip
// the search with nothing seeded. Its fingerprint goes into broken instead,
// so the session's publish force-replaces the poisoned key. It returns the
// database (nil when nothing resolved) and the number of tasks that hit; when
// that is every task, the session is a lookup. A registry storage error
// aborts the session: its misses cannot be trusted.
func registryWarmDB(reg *Registry, tasks []*search.Task, scheduler string) (db *tunelog.Database, hits int, broken map[string]bool, err error) {
	if reg == nil {
		return nil, 0, nil, nil
	}
	db, broken = tunelog.NewDatabase(), map[string]bool{}
	for _, t := range tasks {
		switch rec, _, ok, rerr := reg.resolve(t.Graph, t.Sketches, t.Plat.Name, scheduler); {
		case ok:
			db.Add(rec)
			hits++
		case errors.Is(rerr, ErrRecordBroken):
			broken[t.Graph.Fingerprint()] = true
		case rerr != nil:
			return nil, 0, nil, rerr
		}
	}
	if hits == 0 {
		db = nil
	}
	return db, hits, broken, nil
}
