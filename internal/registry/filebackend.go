package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"harl/internal/tunelog"
)

// fileBackend is the v1 single-file layout: one flat journal.jsonl (the
// authoritative append-only log), with the whole best map and dedup set
// resident in memory. Kept so existing v1 registries open unchanged; new
// registries are sharded.
type fileBackend struct {
	dir string

	mu    sync.RWMutex
	best  map[string]tunelog.Record // key() -> current best record
	seen  map[tunelog.Record]bool   // records known to be in the journal
	size  int                       // distinct records in the journal
	stamp fileStamp                 // journal stat we are in sync with
	stats Stats

	// openJournal opens the journal for a locked append; tests substitute a
	// failing writer to exercise the reload-on-append-failure path.
	openJournal func(path string) (*tunelog.Journal, error)
}

func openFileBackend(dir string) (*fileBackend, error) {
	b := &fileBackend{dir: dir, openJournal: tunelog.OpenJournalWait}
	b.stats.Layout = LayoutSingle
	if err := b.loadLocked(); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *fileBackend) Layout() Layout { return LayoutSingle }

// loadLocked (re)builds the in-memory state from the journal. Caller holds
// the write lock (or is constructing the backend). On failure the stamp stays
// zeroed, so the next access retries the load (and keeps reporting the error)
// instead of treating the unreadable journal as empty.
func (b *fileBackend) loadLocked() error {
	b.best = make(map[string]tunelog.Record)
	b.seen = make(map[tunelog.Record]bool)
	b.size = 0
	b.stamp = fileStamp{}
	path := filepath.Join(b.dir, journalFile)
	// Stamp before reading: a concurrent append between the load and a
	// post-load stat would then go unnoticed forever; stamping first means it
	// only causes one redundant reload.
	stamp := stampOf(path)
	if _, err := os.Stat(path); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("registry: stat journal: %w", err)
	}
	db, err := tunelog.LoadFile(path)
	if err != nil {
		return err
	}
	for _, rec := range db.Records() {
		b.seen[rec] = true
		absorb(b.best, rec)
	}
	b.size = db.Size()
	b.stamp = stamp
	return nil
}

func (b *fileBackend) Resolve(workload, target, scheduler string) (tunelog.Record, bool, error) {
	b.mu.RLock()
	rec, ok := resolveBest(b.best, workload, target, scheduler)
	stale := !ok && stampOf(filepath.Join(b.dir, journalFile)) != b.stamp
	b.mu.RUnlock()
	if ok || !stale {
		return rec, ok, nil
	}
	// Miss with a grown journal: another process published since our load.
	// Reload and retry once (a miss already costs a full search downstream,
	// so the reload is cheap by comparison).
	b.mu.Lock()
	defer b.mu.Unlock()
	if stampOf(filepath.Join(b.dir, journalFile)) != b.stamp {
		if err := b.loadLocked(); err != nil {
			return tunelog.Record{}, false, err
		}
	}
	rec, ok = resolveBest(b.best, workload, target, scheduler)
	return rec, ok, nil
}

// AppendBatch appends records to the journal — opened, appended and closed
// under a blocking advisory lock, so concurrent publishers from other
// processes serialize at batch granularity — and absorbs them into the best
// map. Records the journal is already known to hold are skipped entirely
// (re-importing a seed journal on every daemon boot must not grow the file).
// On any write failure the in-memory state is reloaded from disk: it must
// never claim a record the journal did not get, or a retry of the same
// publish would be skipped as a duplicate and the record silently lost until
// restart.
func (b *fileBackend) AppendBatch(recs []tunelog.Record) ([]bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	path := filepath.Join(b.dir, journalFile)
	jr, err := b.openJournal(path)
	if err != nil {
		return nil, err
	}
	b.stats.LockAcquisitions++
	// The refresh must happen AFTER the flock is held: while we were blocked
	// waiting, another process may have appended — the journal is frozen to
	// other writers now, so what we load here is exactly what our stamp will
	// describe. Refreshing before the lock would fold the other writer's
	// bytes into our post-append stamp without ever loading their records,
	// making them permanently invisible to this process.
	if stampOf(path) != b.stamp {
		if err := b.loadLocked(); err != nil {
			return nil, errors.Join(err, jr.Close())
		}
	}
	improved := make([]bool, len(recs))
	appended := 0
	for i, rec := range recs {
		if b.seen[rec] {
			continue
		}
		if err := jr.Append(rec); err != nil {
			return nil, errors.Join(b.failAppendLocked(err), jr.Close())
		}
		appended++
		b.seen[rec] = true
		b.size++
		improved[i] = absorb(b.best, rec)
	}
	if appended == 0 {
		return improved, jr.Close()
	}
	if err := jr.Close(); err != nil {
		return nil, b.failAppendLocked(err)
	}
	b.stamp = stampOf(path)
	b.stats.Appends++
	b.stats.AppendedRecords += int64(appended)
	return improved, nil
}

// failAppendLocked handles a journal write failure: the in-memory state may
// claim records that never landed, so it is rebuilt from the journal on
// disk. The write error is returned (a reload failure piggybacks on it);
// the caller's retry then re-appends exactly what the journal is missing.
func (b *fileBackend) failAppendLocked(err error) error {
	if lerr := b.loadLocked(); lerr != nil {
		return fmt.Errorf("registry: append failed (%w) and reload failed: %v", err, lerr)
	}
	return fmt.Errorf("registry: append: %w", err)
}

func (b *fileBackend) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.best)
}

func (b *fileBackend) Records() ([]tunelog.Record, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return sortedBest(b.best), nil
}

func (b *fileBackend) Stats() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s := b.stats
	s.Keys = len(b.best)
	s.Records = b.size
	return s
}

func (b *fileBackend) Close() error { return nil }
