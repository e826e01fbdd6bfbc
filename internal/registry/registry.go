// Package registry implements the persistent best-schedule store of the HARL
// reproduction: the end product of tuning — the best known schedule per
// (workload fingerprint, target, scheduler) — kept as a durable, queryable
// artifact so a second request for an already-tuned workload costs a lookup
// instead of a search.
//
// Storage is best-only append-only journals (the same schema as tuning logs,
// so any tuning journal can be imported wholesale), each with an in-memory
// best map replayed from it (see journal.go). A record is appended only when
// it changes a best — it improves its key, or it is a Force heal that differs
// from the current best — so a journal holds one line per improvement and
// replaying its lines in order reproduces the live best map exactly. There
// are two layouts of them:
//
//	sharded  (v2, every new registry) the journal split by workload
//	         fingerprint across shards/<xx>/journal.jsonl (256 shards), each
//	         independently locked and loaded on first use. Memory is every
//	         shard index loaded so far.
//	single   (v1) one flat journal.jsonl at the root, loaded on open. Kept
//	         so existing v1 registries open unchanged.
//
// The journals stay authoritative: any index is rebuilt from a replay, and a
// single-file registry opens unchanged or migrates in place to the sharded
// layout (migrate).
//
// Durability: a publish returns once its lines are fsynced, so a returned
// publish survives a machine crash, not only a process kill. A crash during
// the append loses at most that append; torn-tail repair keeps the loss to a
// suffix of whole lines.
//
// Concurrency: a Registry value is safe for concurrent readers and
// concurrent publishers in-process. A publish is one locked journal append on
// the caller's goroutine; a batch the caller already holds (a session's bests,
// an imported journal) is one append per journal it touches. Across processes,
// writers serialize behind blocking advisory file locks held only for the
// append. Open writes no journal state, so read-only consumers can open a
// registry another process is publishing into; and a Resolve miss re-checks
// the journals on disk and reloads when another process has grown them, so a
// long-running daemon observes records a CLI publishes beside it.
package registry

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"harl/internal/tunelog"
)

// journalFile and shardsDir are the registry's on-disk layout under its
// directory (journalFile for the single-file layout, shardsDir for the
// sharded one).
const (
	journalFile = "journal.jsonl"
	shardsDir   = "shards"
)

// Registry is an open best-schedule store: one journal at the root (v1) or
// shardCount under shards/ (v2).
type Registry struct {
	layout   Layout
	journals []*journal
	// openJournal opens a journal for an append its caller has locked; tests
	// substitute a failing or gated opener.
	openJournal func(path string) (*tunelog.Journal, error)

	// idx guards every journal's index and stats: shared for a hit,
	// exclusive for a load or an append.
	idx   sync.RWMutex
	stats Stats

	// mu is held shared by each append and exclusively by Close, so Close
	// waits for in-flight publishes and a publish after it fails.
	mu     sync.RWMutex
	closed bool
}

func newRegistry(layout Layout, journals []*journal) *Registry {
	return &Registry{layout: layout, journals: journals, openJournal: tunelog.OpenJournalUnlocked}
}

// journalFor routes a workload fingerprint to its journal, so every key's
// records — and therefore every Resolve, including the any-scheduler scan —
// live in exactly one. The sharded route hashes the fingerprint instead of
// slicing a literal prefix: fingerprints embed the subgraph name ("gemm@…"),
// so a raw prefix would pile whole operator families into a handful of
// shards.
func (r *Registry) journalFor(workload string) *journal {
	if len(r.journals) == 1 {
		return r.journals[0]
	}
	h := fnv.New32a()
	h.Write([]byte(workload))
	return r.journals[h.Sum32()%uint32(len(r.journals))]
}

// key is the exact lookup key. The scheduler is part of the key: different
// presets explore different spaces and a service comparing them must not
// cross-contaminate their bests.
func key(workload, target, scheduler string) string {
	return workload + "\x00" + target + "\x00" + scheduler
}

// absorb folds one record into a best map, reporting whether it changed it:
// the record improved (or established) its key, or it is a Force heal that
// differs from the current best. Ties keep the incumbent, so re-imports of
// equal measurements never churn the map; a Force record wins whatever its
// time (the durable heal path — journal replays preserve it because
// absorption is order-sensitive). It is the one decision of what a journal
// appends.
func absorb(best map[string]tunelog.Record, rec tunelog.Record) bool {
	k := key(rec.Workload, rec.Target, rec.Scheduler)
	if cur, ok := best[k]; ok && (cur == rec || !rec.Force && cur.ExecSec <= rec.ExecSec) {
		return false
	}
	best[k] = rec
	return true
}

// resolveBest answers the exact or any-scheduler query against a best map.
func resolveBest(best map[string]tunelog.Record, workload, target, scheduler string) (tunelog.Record, bool) {
	if scheduler != "" {
		rec, ok := best[key(workload, target, scheduler)]
		return rec, ok
	}
	var out tunelog.Record
	found := false
	for _, rec := range best {
		if rec.Workload != workload || rec.Target != target {
			continue
		}
		if !found || rec.ExecSec < out.ExecSec ||
			(rec.ExecSec == out.ExecSec && rec.Scheduler < out.Scheduler) {
			out, found = rec, true
		}
	}
	return out, found
}

// Open opens (creating if needed) the registry directory with auto-detected
// layout, loading state from the authoritative journal(s). Open writes no
// journal state — at most it creates the directory and, for a sharded
// registry, its shards/ tree — so read-only consumers can open a registry
// another process is actively publishing into.
func Open(dir string) (*Registry, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with an explicit layout. A root journal.jsonl under the
// sharded layout is a v1 registry to migrate in place — or a migration a kill
// interrupted after shards/ was created and before the journal was retired,
// which would otherwise open as an empty sharded registry. The replay appends
// only what changes a shard's bests, so both cases run migrate.
func OpenOptions(dir string, o Options) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create dir: %w", err)
	}
	layout := o.Layout
	switch layout {
	case LayoutAuto:
		layout = detectLayout(dir)
	case LayoutSingle:
		if hasShards(dir) {
			return nil, fmt.Errorf("registry: %s holds a sharded registry; open it with the sharded (or auto) layout", dir)
		}
	case LayoutSharded:
	default:
		return nil, fmt.Errorf("registry: unknown layout %q", layout)
	}
	if layout == LayoutSingle {
		return openSingle(dir)
	}
	if _, err := os.Stat(filepath.Join(dir, journalFile)); err == nil {
		if err := migrate(dir); err != nil {
			return nil, err
		}
	}
	return openSharded(dir)
}

// Resolve returns the best known record for the key, if any — the cache-hit
// path a tuning request consults before spending a single trial. An empty
// scheduler matches any preset, returning the best record across all of them
// (ties to the lexicographically smaller scheduler name, deterministically).
// A miss re-checks durable state first, so publishes from other processes
// become visible without reopening. The error reports an unreadable or
// damaged store — the caller must not conflate it with a plain miss (a
// service would silently turn every request into a cold search).
func (r *Registry) Resolve(workload, target, scheduler string) (tunelog.Record, bool, error) {
	j := r.journalFor(workload)
	r.idx.RLock()
	if j.best != nil {
		if rec, ok := resolveBest(j.best, workload, target, scheduler); ok {
			r.idx.RUnlock()
			return rec, true, nil
		}
	}
	r.idx.RUnlock()
	// Not loaded yet, or a miss: (re)load when the journal file moved —
	// another process may have published since our last look (a miss already
	// costs a full search downstream, so the stat is cheap by comparison).
	r.idx.Lock()
	defer r.idx.Unlock()
	if !j.fresh() {
		if err := j.load(); err != nil {
			return tunelog.Record{}, false, err
		}
	}
	rec, ok := resolveBest(j.best, workload, target, scheduler)
	return rec, ok, nil
}

// Publish records one measurement into the registry: when the record beats
// the current best for its key — or, with rec.Force set (the durable heal for
// a poisoned key), differs from it — it becomes the best and is appended to
// the journal; otherwise nothing changes and nothing is written. The returned
// bool reports that change. The caller blocks for one locked, fsynced append
// (see the package doc).
func (r *Registry) Publish(rec tunelog.Record) (bool, error) {
	n, err := r.PublishBatch([]tunelog.Record{rec})
	return n == 1, err
}

// PublishBatch publishes an already-assembled batch in order — one locked,
// fsynced write per journal it touches, in journal order — and returns how
// many records changed a best, which is how many lines it appended.
func (r *Registry) PublishBatch(recs []tunelog.Record) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return 0, fmt.Errorf("registry: closed")
	}
	groups := make(map[*journal][]int)
	for i, rec := range recs {
		j := r.journalFor(rec.Workload)
		groups[j] = append(groups[j], i)
	}
	improved := make([]bool, len(recs))
	r.idx.Lock()
	defer r.idx.Unlock()
	for _, j := range r.journals {
		if idxs := groups[j]; len(idxs) > 0 {
			if err := r.appendLocked(j, recs, idxs, improved); err != nil {
				return 0, err
			}
		}
	}
	n := 0
	for _, ok := range improved {
		if ok {
			n++
		}
	}
	return n, nil
}

// ImportJournal publishes every record of a journal file in one batch, in
// file order with corrupt lines skipped, and returns how many changed a best
// — the lines it appended, the file's improving subsequence. Importing a
// tuning log again is a no-op, unless a Force heal has since replaced a key's
// best with a slower record the log beats: tuning logs carry no Force
// records. A journal holding heals (a registry journal) re-applies them. This
// is how a daemon boots from a committed journal, and how offline tuning runs
// feed a shared cache.
func (r *Registry) ImportJournal(path string) (int, error) {
	recs, err := readJournal(path)
	if err != nil {
		return 0, err
	}
	return r.PublishBatch(recs)
}

// readJournal returns every well-formed record of a journal file in file
// order, duplicates included, as a replay needs them.
func readJournal(path string) ([]tunelog.Record, error) {
	var recs []tunelog.Record
	_, err := tunelog.ScanFile(path, func(rec tunelog.Record) { recs = append(recs, rec) })
	return recs, err
}

// Len returns the number of distinct (workload, target, scheduler) keys with
// a best record.
func (r *Registry) Len() int {
	r.idx.RLock()
	defer r.idx.RUnlock()
	n := 0
	for _, j := range r.journals {
		n += j.keys
	}
	return n
}

// Layout reports the storage layout backing this registry.
func (r *Registry) Layout() Layout { return r.layout }

// Stats snapshots the registry's storage counters (records, appends, lock
// acquisitions, resident shards).
func (r *Registry) Stats() Stats {
	r.idx.RLock()
	defer r.idx.RUnlock()
	s := r.stats
	for _, j := range r.journals {
		s.Records += j.records
		if j.shard && j.best != nil {
			s.ResidentShards++
		}
	}
	return s
}

// Close waits for in-flight publishes; publishes after Close fail.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	return nil
}

// migrate converts a single-file registry directory to the sharded layout in
// place: the journal replays into per-shard journals (every line, in order,
// so Force heals keep their effect), the old journal is kept as
// journal.v1.jsonl for rollback, and an index.json snapshot older binaries
// wrote beside it is removed.
// Opening a directory as sharded calls this whenever a root journal.jsonl is
// present; the replay appends only what changes a shard's bests, so a run
// killed at any point before the rename is completed by the next one.
func migrate(dir string) error {
	src := filepath.Join(dir, journalFile)
	recs, err := readJournal(src)
	if err != nil {
		return fmt.Errorf("registry: migrate: %w", err)
	}
	sharded, err := openSharded(dir)
	if err != nil {
		return err
	}
	if _, err := sharded.PublishBatch(recs); err != nil {
		return fmt.Errorf("registry: migrate: %w", err)
	}
	if err := os.Rename(src, filepath.Join(dir, "journal.v1.jsonl")); err != nil {
		return fmt.Errorf("registry: migrate: retire v1 journal: %w", err)
	}
	os.Remove(filepath.Join(dir, "index.json"))
	return nil
}
