package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"harl/internal/tunelog"
)

// journal is one authoritative append-only journal.jsonl and the index
// replayed from it: the v1 layout keeps one at the registry root, the sharded
// layout one per shards/<xx>/. A journal is loaded on first use and stays
// loaded; a stamp check reloads it when another process wrote. Its state is
// guarded by Registry.idx.
type journal struct {
	dir string
	// lock is the file a writer flocks: the journal itself in the v1 layout
	// (the lock older binaries take too), a shard's never-renamed lock file
	// in the sharded one.
	lock string
	// shard marks a sharded-layout journal: its appends also write the
	// shard's header.json, or compact it.
	shard bool

	best  map[string]tunelog.Record // key() -> current best record; nil until loaded
	seen  map[tunelog.Record]bool   // records known to be in the journal
	stamp journalStamp              // durable state the index is in sync with
	// keys/records count the index's bests and distinct records, seeded from
	// the shard header at open so Len and Stats work before a load.
	keys, records int
}

func (j *journal) path() string { return filepath.Join(j.dir, journalFile) }

// fileStamp identifies a journal state cheaply; the journal is append-only,
// so any growth changes the size (and a cross-process publish that somehow
// kept the size would still change mtime). It cannot detect a rewrite that
// preserves both — a shard's header generation covers that (journalStamp).
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

// journalStamp identifies a journal's durable state: its file stamp plus, for
// a shard, the header's generation counter. Appends grow the file stamp;
// compaction rewrites the journal — which can land on the same size and
// mtime — and bumps the generation, so readers always detect it.
type journalStamp struct {
	gen int64
	fs  fileStamp
}

func (j *journal) durableStamp() (journalStamp, error) {
	var gen int64
	if j.shard {
		h, err := readShardHeader(j.dir)
		if err != nil {
			return journalStamp{}, err
		}
		gen = h.Generation
	}
	return journalStamp{gen: gen, fs: stampOf(j.path())}, nil
}

// fresh reports whether the index is loaded and still matches the durable
// state.
func (j *journal) fresh() bool {
	if j.best == nil {
		return false
	}
	stamp, err := j.durableStamp()
	return err == nil && stamp == j.stamp
}

// load (re)builds the index from the journal. On failure the index is
// dropped, so the next access retries the load (and keeps reporting the
// error) instead of serving a stale or empty index.
func (j *journal) load() error {
	j.best, j.seen = nil, nil
	// Stamp before reading: a concurrent append between the load and a
	// post-load stat would then go unnoticed forever; stamping first means it
	// only causes one redundant reload.
	stamp, err := j.durableStamp()
	if err != nil {
		return err
	}
	best, seen, size := make(map[string]tunelog.Record), make(map[tunelog.Record]bool), 0
	if _, err := os.Stat(j.path()); err == nil {
		db, err := tunelog.LoadFile(j.path())
		if err != nil {
			return err
		}
		for _, rec := range db.Records() {
			seen[rec] = true
			absorb(best, rec)
		}
		size = db.Size()
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("registry: stat journal: %w", err)
	}
	j.best, j.seen, j.stamp = best, seen, stamp
	j.keys, j.records = len(best), size
	return nil
}

// appendLocked appends recs[i] for each i in idxs to the journal under its
// blocking cross-process lock, skipping records the journal already holds
// (re-importing a seed journal on every daemon boot must not grow it), and
// sets improved[i] for each record that improved (or established) its key.
// Caller holds r.idx exclusively.
//
// The lines reach the OS before it returns but are not fsynced. On a write
// or close failure the index is reloaded from disk: it must never claim a
// record the journal did not get, or a retry of the same publish would be
// skipped as a duplicate and the record silently lost until restart.
func (r *Registry) appendLocked(j *journal, recs []tunelog.Record, idxs []int, improved []bool) (err error) {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("registry: create journal dir: %w", err)
	}
	flock, err := tunelog.AcquireFileLock(j.lock)
	if err != nil {
		return err
	}
	// A failed lock release means the fd leaked and the journal may stay
	// locked for the process lifetime — surface it unless an append error
	// already won.
	defer func() {
		if cerr := flock.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("registry: release %s: %w", j.lock, cerr)
		}
	}()
	r.stats.LockAcquisitions++
	// Refresh under the lock: while we waited, another process may have
	// appended or compacted — the journal is frozen to other writers now, so
	// what we load is exactly what our stamp will describe.
	if !j.fresh() {
		if err := j.load(); err != nil {
			return err
		}
	}
	fresh := make([]int, 0, len(idxs))
	for _, i := range idxs {
		if !j.seen[recs[i]] {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	jr, err := r.openJournal(j.path())
	if err != nil {
		return err
	}
	for _, i := range fresh {
		if err := jr.Append(recs[i]); err != nil {
			return errors.Join(j.failAppend(err), jr.Close())
		}
		j.seen[recs[i]] = true
		j.records++
		improved[i] = absorb(j.best, recs[i])
	}
	if err := jr.Close(); err != nil {
		return j.failAppend(err)
	}
	j.stamp.fs = stampOf(j.path())
	j.keys = len(j.best)
	r.stats.Appends++
	if !j.shard {
		return nil
	}
	if r.shouldCompact(j) {
		// compact writes the header itself (the generation bump must be
		// durable before the journal is replaced).
		if err := j.compact(); err != nil {
			return err
		}
		r.stats.Compactions++
		return nil
	}
	return writeShardHeader(j.dir, shardHeader{Generation: j.stamp.gen, Keys: j.keys, Records: j.records})
}

// failAppend handles a journal write failure: the index may claim records
// that never landed, so it is rebuilt from the journal on disk. The write
// error is returned (a reload failure piggybacks on it); the caller's retry
// then re-appends exactly what the journal is missing.
func (j *journal) failAppend(err error) error {
	if lerr := j.load(); lerr != nil {
		return fmt.Errorf("registry: append to %s failed (%w) and reload failed: %v", j.path(), err, lerr)
	}
	return fmt.Errorf("registry: append to %s: %w", j.path(), err)
}
