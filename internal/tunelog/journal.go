package tunelog

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal appends tuning records to a log file (or any writer) as JSONL.
// Append is safe for concurrent use, but callers that need byte-identical
// journals across worker counts must append in a deterministic order — the
// tuning stack does: search.Task commits measurements serially in batch input
// order, and search.MultiTuner drains per-task record buffers at wave
// barriers in selection order.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer // nil when wrapping a plain writer
	err error     // first write error, sticky
}

// OpenJournal opens (creating if needed) a journal file for appending. The
// file carries a non-blocking exclusive advisory lock (flock, where the
// platform supports it) for the journal's lifetime, so two processes cannot
// interleave appends into one log: the second open fails fast instead. The
// lock is released by Close or by process exit — a killed run never leaves a
// stale lock behind.
func OpenJournal(path string) (*Journal, error) {
	return openJournal(path, lockFile)
}

// OpenJournalUnlocked opens a journal without taking an advisory lock of its
// own, for callers that serialize writers externally (AcquireFileLock). The
// registry does: a v1 registry locks its journal file through a separate
// descriptor, and a sharded one locks each shard's never-renamed lock file.
// Older binaries compact a shard by atomically replacing its journal, and a
// flock held on the replaced inode would no longer exclude them.
func OpenJournalUnlocked(path string) (*Journal, error) {
	return openJournal(path, func(*os.File) error { return nil })
}

func openJournal(path string, lock func(*os.File) error) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tunelog: open journal: %w", err)
	}
	if err := lock(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := repairTornTail(f); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{w: f, c: f}, nil
}

// repairTornTail heals a journal whose last write was torn (crash or
// disk-full mid-append): the file ends with a partial line and no trailing
// newline. Because journals open O_APPEND, the next Append would concatenate
// its record onto the torn tail, and the corrupt-line-tolerant loader would
// then drop the merged line — silently losing a valid record. Writing one
// repair newline confines the damage to the already-lost partial line. Runs
// after the advisory lock is held (or under the caller's external lock), so
// it never races another writer.
func repairTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("tunelog: stat journal: %w", err)
	}
	if st.Size() == 0 {
		return nil
	}
	var tail [1]byte
	if _, err := f.ReadAt(tail[:], st.Size()-1); err != nil {
		return fmt.Errorf("tunelog: read journal tail: %w", err)
	}
	if tail[0] == '\n' {
		return nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return fmt.Errorf("tunelog: repair torn journal tail: %w", err)
	}
	return nil
}

// AcquireFileLock takes a blocking exclusive advisory lock on path (created
// if missing), returning a closer that releases it — the external
// serialization primitive behind OpenJournalUnlocked. A lock on a journal
// file excludes OpenJournal on it too (flock locks belong to the open file,
// so this holds within one process as well); the sharded registry locks
// shards/<xx>/lock instead, the file older binaries lock while they compact
// (rename-replace) a shard journal, so waiters' flocks are never orphaned.
func AcquireFileLock(path string) (io.Closer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644) //lint:allow atomicwrite lock-file inode: it anchors the advisory flock and never carries data
	if err != nil {
		return nil, fmt.Errorf("tunelog: open lock file: %w", err)
	}
	if err := lockFileWait(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// NewJournal wraps an arbitrary writer (tests, in-memory journals).
//
//lint:allow deadexport core/journal_test.go, registry/backend_test.go, search/lazyfit_test.go, search/pretrain_test.go and tunelog_test.go journal into memory
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// NewJournalWriteCloser wraps a writer whose Close matters: Close propagates
// the closer's error exactly like the file-backed journals do. Tests use it
// to prove close failures are not swallowed by callers.
//
//lint:allow deadexport registry/backend_test.go and tunelog_test.go fail a Close through it
func NewJournalWriteCloser(wc io.WriteCloser) *Journal { return &Journal{w: wc, c: wc} }

// Append writes one record as a JSONL line. The first error encountered is
// returned and retained, and Close returns it, so fire-and-forget callers
// inside measurement callbacks can check once at the end of a run.
func (j *Journal) Append(r Record) error {
	line, err := r.MarshalLine()
	if err != nil {
		return j.fail(err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		j.err = fmt.Errorf("tunelog: append: %w", err)
		return j.err
	}
	return nil
}

func (j *Journal) fail(err error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		j.err = err
	}
	return j.err
}

// Sync commits the lines appended so far to stable storage (fsync), so they
// survive a machine crash and not only a process kill, and returns any
// retained write error. It is a no-op for a writer that cannot sync.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if s, ok := j.c.(interface{ Sync() error }); ok && j.err == nil {
		if err := s.Sync(); err != nil {
			j.err = fmt.Errorf("tunelog: sync journal: %w", err)
		}
	}
	return j.err
}

// Close flushes and closes the underlying file (a no-op for plain writers)
// and returns any retained write error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.c != nil {
		if err := j.c.Close(); err != nil && j.err == nil {
			j.err = fmt.Errorf("tunelog: close journal: %w", err)
		}
		j.c = nil
	}
	return j.err
}
