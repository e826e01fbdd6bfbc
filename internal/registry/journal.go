package registry

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"harl/internal/tunelog"
)

// journal is one authoritative append-only journal.jsonl and the best map
// replayed from it: the v1 layout keeps one at the registry root, the sharded
// layout one per shards/<xx>/. A journal holds one line per record absorb
// accepted when it was published, so replaying every line in order rebuilds
// the live best map exactly. It is loaded on first use and stays loaded; a
// stamp check reloads it when another process wrote. Its state is guarded by
// Registry.idx.
type journal struct {
	dir string
	// lock is the file a writer flocks: the journal itself in the v1 layout
	// (the lock older binaries take too), a shard's never-renamed lock file
	// in the sharded one.
	lock string
	// shard marks a sharded-layout journal: its appends also rewrite the
	// shard's header.json counts.
	shard bool

	best  map[string]tunelog.Record // key() -> current best record; nil until loaded
	stamp fileStamp                 // journal file state the index is in sync with
	// keys/records count the index's bests and the journal's lines, seeded
	// from the shard header at open so Len and Stats work before a load.
	keys, records int
}

func (j *journal) path() string { return filepath.Join(j.dir, journalFile) }

// fileStamp identifies a journal file's state cheaply. An append grows the
// size (and a cross-process publish that somehow kept it would still change
// the mtime). A rename-replace — how older binaries compact a shard — always
// changes the inode, which os.SameFile compares, so a replacement is seen
// even when it keeps both size and mtime. fi is nil when the file is absent.
type fileStamp struct{ fi os.FileInfo }

func stampOf(path string) fileStamp {
	fi, err := os.Stat(path)
	if err != nil {
		return fileStamp{}
	}
	return fileStamp{fi}
}

func (s fileStamp) same(o fileStamp) bool {
	if s.fi == nil || o.fi == nil {
		return s.fi == o.fi
	}
	return os.SameFile(s.fi, o.fi) && s.fi.Size() == o.fi.Size() && s.fi.ModTime().Equal(o.fi.ModTime())
}

// fresh reports whether the index is loaded and still matches the journal
// file.
func (j *journal) fresh() bool {
	return j.best != nil && j.stamp.same(stampOf(j.path()))
}

// load (re)builds the index by folding every journal line through absorb, in
// file order and without dedup: a Force heal may legitimately appear twice
// (re-imported after its key improved), and the second one must win again.
// On failure the index is dropped, so the next access retries the load (and
// keeps reporting the error) instead of serving a stale or empty index.
func (j *journal) load() error {
	j.best = nil
	// Stamp before reading: a concurrent append between the load and a
	// post-load stat would then go unnoticed forever; stamping first means it
	// only causes one redundant reload.
	stamp := stampOf(j.path())
	best, lines := make(map[string]tunelog.Record), 0
	_, err := tunelog.ScanFile(j.path(), func(rec tunelog.Record) {
		absorb(best, rec)
		lines++
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	j.best, j.stamp = best, stamp
	j.keys, j.records = len(best), lines
	return nil
}

// appendLocked publishes recs[i] for each i in idxs into the journal under
// its blocking cross-process lock. After refreshing the index it appends each
// record absorb accepts — one that improves its key, or a Force heal that
// changes it — and sets improved[i] for it; a record absorb rejects changes
// no best and is not written, so re-importing a seed journal on every daemon
// boot does not grow it. The lines are fsynced before it returns. Caller
// holds r.idx exclusively.
//
// On any failure the index is reloaded from disk: it must never claim a
// record the journal did not get, or a retry of the same publish would be
// rejected as no improvement and the record silently lost until restart.
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
	// appended — the journal is frozen to other writers now, so what we load
	// is exactly what our stamp will describe.
	if !j.fresh() {
		if err := j.load(); err != nil {
			return err
		}
	}
	accepted := make([]int, 0, len(idxs))
	for _, i := range idxs {
		if absorb(j.best, recs[i]) {
			accepted = append(accepted, i)
		}
	}
	if len(accepted) == 0 {
		return nil
	}
	jr, err := r.openJournal(j.path())
	if err != nil {
		return j.failAppend(err)
	}
	for _, i := range accepted {
		if err := jr.Append(recs[i]); err != nil {
			return errors.Join(j.failAppend(err), jr.Close())
		}
	}
	if err := errors.Join(jr.Sync(), jr.Close()); err != nil {
		return j.failAppend(err)
	}
	for _, i := range accepted {
		improved[i] = true
	}
	j.stamp = stampOf(j.path())
	j.keys, j.records = len(j.best), j.records+len(accepted)
	r.stats.Appends++
	if !j.shard {
		return nil
	}
	return writeShardHeader(j.dir, shardHeader{Keys: j.keys, Records: j.records})
}

// failAppend handles a journal open, write, sync or close failure: the index
// may claim records that never landed, so it is rebuilt from the journal on
// disk. The error is returned (a reload failure piggybacks on it); the
// caller's retry then re-appends exactly what the journal is missing.
func (j *journal) failAppend(err error) error {
	if lerr := j.load(); lerr != nil {
		return fmt.Errorf("registry: append to %s failed (%w) and reload failed: %v", j.path(), err, lerr)
	}
	return fmt.Errorf("registry: append to %s: %w", j.path(), err)
}
