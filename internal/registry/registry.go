// Package registry implements the persistent best-schedule store of the HARL
// reproduction: the end product of tuning — the best known schedule per
// (workload fingerprint, target, scheduler) — kept as a durable, queryable
// artifact so a second request for an already-tuned workload costs a lookup
// instead of a search.
//
// Storage is pluggable behind the Backend interface, with two layouts:
//
//	sharded  (v2, every new registry) the journal split by workload
//	         fingerprint across shards/<xx>/journal.jsonl (256 shards), each
//	         independently locked and compacted down to its per-key bests
//	         when superseded records dominate, with an LRU bounding how many
//	         shard indexes are resident. See shardbackend.go.
//	single   (v1) one flat journal.jsonl — the authoritative append-only log
//	         (same schema as tuning logs, so any tuning journal can be
//	         imported wholesale; replaying it in order reproduces the best
//	         map exactly, including Force heal records). The whole index
//	         stays in memory. Kept so existing v1 registries open unchanged.
//
// In both layouts the append-only journal(s) stay authoritative: any backend
// rebuilds its state from a replay, and a single-file registry opens
// unchanged or migrates in place to the sharded layout (migrate).
//
// Durability: a publish returns once its lines reach the OS, not the disk —
// appends are not fsynced. A returned publish survives a process kill; a
// machine crash can lose the most recent appends, and torn-tail repair keeps
// that loss to a suffix of whole lines.
//
// Concurrency: a Registry value is safe for concurrent readers and
// concurrent publishers in-process. Publishes funnel through a group-commit
// batcher — one locked append services every record queued while the previous
// append was in flight, so N concurrent publishers amortize lock acquisitions
// instead of paying one apiece. Across processes,
// writers serialize behind blocking advisory file locks held only for the
// append. Open writes no journal state, so read-only consumers can open a
// registry another process is publishing into; and a Resolve miss re-checks
// the journals on disk and reloads when another process has grown them, so a
// long-running daemon observes records a CLI publishes beside it.
package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"harl/internal/tunelog"
)

// journalFile and shardsDir are the registry's on-disk layout under its
// directory (journalFile for the single-file layout, shardsDir for the
// sharded one).
const (
	journalFile = "journal.jsonl"
	shardsDir   = "shards"
)

// Registry is an open best-schedule store: a storage backend behind a
// publish batcher.
type Registry struct {
	b   Backend
	bat *batcher
}

// fileStamp identifies a journal state cheaply; the journal is append-only,
// so any growth changes the size (and a cross-process publish that somehow
// kept the size would still change mtime). It cannot detect a rewrite that
// preserves both — the sharded layout adds a generation counter for that
// (see shardStamp).
type fileStamp struct {
	size  int64
	mtime time.Time
}

func stampOf(path string) fileStamp {
	st, err := os.Stat(path)
	if err != nil {
		return fileStamp{}
	}
	return fileStamp{size: st.Size(), mtime: st.ModTime()}
}

// key is the exact lookup key. The scheduler is part of the key: different
// presets explore different spaces and a service comparing them must not
// cross-contaminate their bests.
func key(workload, target, scheduler string) string {
	return workload + "\x00" + target + "\x00" + scheduler
}

// absorb folds one record into a best map, reporting whether it improved (or
// established) its key. Ties keep the incumbent, so re-imports of equal
// measurements never churn the map; a Force record wins unconditionally (the
// durable heal path — journal replays preserve it because absorption is
// order-sensitive).
func absorb(best map[string]tunelog.Record, rec tunelog.Record) bool {
	k := key(rec.Workload, rec.Target, rec.Scheduler)
	if !rec.Force {
		if cur, ok := best[k]; ok && cur.ExecSec <= rec.ExecSec {
			return false
		}
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

// sortedBest returns a best map's records sorted by key — the stable
// enumeration order Records and compaction use.
func sortedBest(best map[string]tunelog.Record) []tunelog.Record {
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]tunelog.Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, best[k])
	}
	return out
}

// Open opens (creating if needed) the registry directory with auto-detected
// layout, loading state from the authoritative journal(s). Open writes no
// journal state — at most it creates the directory and, for a sharded
// registry, its shards/ tree — so read-only consumers can open a registry
// another process is actively publishing into.
func Open(dir string) (*Registry, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with an explicit layout.
func OpenOptions(dir string, o Options) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create dir: %w", err)
	}
	b, err := openBackend(dir, o)
	if err != nil {
		return nil, err
	}
	return &Registry{b: b, bat: newBatcher(b)}, nil
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
	return r.b.Resolve(workload, target, scheduler)
}

// Publish records one measurement into the registry: it is appended to the
// journal (unless the journal already holds it) and the best map updates only
// when the record beats the current best for its key. The returned bool
// reports that improvement. Concurrent publishes are group-committed: each
// caller blocks until its record is appended (see the package doc for what
// that survives), and one locked append services every record queued while
// the previous append was in flight.
func (r *Registry) Publish(rec tunelog.Record) (bool, error) {
	return r.bat.publish(rec)
}

// Replace force-installs a record as its key's best even if the incumbent
// has a lower recorded time — the repair path for a poisoned key: a foreign
// record whose steps no longer reconstruct can carry an unbeatably low
// ExecSec, and Publish's keep-better rule would preserve it forever. The
// heal persists: the record is journaled with Force set, and journal
// replays absorb it in order, so rebuilds keep the replacement.
func (r *Registry) Replace(rec tunelog.Record) error {
	rec.Force = true
	_, err := r.bat.publish(rec)
	return err
}

// PublishBatch appends an already-assembled batch in one locked write,
// bypassing the batcher (the records are a batch by construction), and
// returns how many improved their key.
func (r *Registry) PublishBatch(recs []tunelog.Record) (int, error) {
	improved, err := r.b.AppendBatch(recs)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, ok := range improved {
		if ok {
			n++
		}
	}
	return n, nil
}

// ImportJournal publishes every record of a tuning-record log (corrupt lines
// skipped, duplicates collapsed — tunelog.LoadFile semantics) in one append
// batch and returns how many improved the registry. Importing the same
// journal again is a no-op. This is how a daemon boots from a committed
// journal, and how offline tuning runs feed a shared cache.
func (r *Registry) ImportJournal(path string) (int, error) {
	db, err := tunelog.LoadFile(path)
	if err != nil {
		return 0, err
	}
	return r.PublishBatch(db.Records())
}

// Len returns the number of distinct (workload, target, scheduler) keys with
// a best record.
func (r *Registry) Len() int { return r.b.Len() }

// Layout reports the storage layout backing this registry.
func (r *Registry) Layout() Layout { return r.b.Layout() }

// Stats snapshots the registry's storage counters (appends, lock
// acquisitions, batch flushes, compactions, resident shards).
func (r *Registry) Stats() Stats {
	s := r.b.Stats()
	s.BatchesFlushed, s.BatchedRecords = r.bat.stats()
	return s
}

// Close flushes the publish batcher (pending publishes are appended first)
// and releases the backend. Publishes after Close fail.
func (r *Registry) Close() error {
	r.bat.close()
	return r.b.Close()
}

// migrate converts a single-file registry directory to the sharded layout in
// place: the journal replays into per-shard journals (order preserved, so
// Force heals keep their effect), the old journal is kept as
// journal.v1.jsonl for rollback, and an index.json snapshot older binaries
// wrote beside it is removed.
// Opening a directory as sharded calls this whenever a root journal.jsonl is
// present; the replay skips records a shard already holds, so a run killed at
// any point before the rename is completed by the next one.
func migrate(dir string) error {
	src := filepath.Join(dir, journalFile)
	db, err := tunelog.LoadFile(src)
	if err != nil {
		return fmt.Errorf("registry: migrate: %w", err)
	}
	sb, err := openSharded(dir)
	if err != nil {
		return err
	}
	if _, err := sb.AppendBatch(db.Records()); err != nil {
		return errors.Join(fmt.Errorf("registry: migrate: %w", err), sb.Close())
	}
	if err := sb.Close(); err != nil {
		return err
	}
	if err := os.Rename(src, filepath.Join(dir, "journal.v1.jsonl")); err != nil {
		return fmt.Errorf("registry: migrate: retire v1 journal: %w", err)
	}
	os.Remove(filepath.Join(dir, "index.json"))
	return nil
}
