package tunelog

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
)

// Database is the in-memory index over one or more tuning journals: records
// in load order, exact duplicates removed, with a best-record (lowest
// measured execution time) index per (workload, target) key.
type Database struct {
	records []Record
	seen    map[string]bool
	best    map[string]int // Record.Key() -> index into records
	skipped int
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{seen: make(map[string]bool), best: make(map[string]int)}
}

// LoadFile builds a database from one journal file. A missing file is an
// error; a corrupt file loads the parseable prefix of every line (see Load).
func LoadFile(path string) (*Database, error) {
	db := NewDatabase()
	skipped, err := ScanFile(path, func(r Record) { db.Add(r) })
	if err != nil {
		return nil, err
	}
	db.skipped += skipped
	return db, nil
}

// Load reads a JSONL journal, adding every well-formed record. Corrupt lines
// — truncated trailing writes, garbage, records of an unknown schema version
// — are counted (Skipped) and skipped rather than failing the load, so a
// journal damaged by a crash still warm-starts from its intact prefix. Only
// I/O errors are returned.
//
//lint:allow deadexport core/journal_test.go, search/lazyfit_test.go, search/pretrain_test.go and tunelog_test.go load journals held in memory
func (db *Database) Load(r io.Reader) error {
	skipped, err := scan(r, maxFirstBuf, func(rec Record) { db.Add(rec) })
	db.skipped += skipped
	return err
}

// maxFirstBuf caps a scan's first line buffer; maxLine is the longest line
// the buffer grows to.
const (
	maxFirstBuf = 64 << 10
	maxLine     = 1 << 20
)

// ScanFile streams one journal file through fn: every well-formed record in
// file order, exact duplicates included — the replay a registry journal
// needs, where a repeated Force heal is a second event, not a copy. Corrupt
// lines are skipped as in Load and counted in the result. The line buffer
// starts at the file's size (capped at maxFirstBuf), so a small journal costs
// a small buffer. A missing file is an error wrapping fs.ErrNotExist.
func ScanFile(path string, fn func(Record)) (skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("tunelog: open log: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("tunelog: stat log: %w", err)
	}
	return scan(f, int(min(st.Size()+1, maxFirstBuf)), fn)
}

// scan is the one line loop under Load and ScanFile.
func scan(r io.Reader, firstBuf int, fn func(Record)) (skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, firstBuf), maxLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		rec, err := ParseLine(line)
		if err != nil || rec.V != SchemaVersion {
			skipped++
			continue
		}
		fn(rec)
	}
	if err := sc.Err(); err != nil {
		return skipped, fmt.Errorf("tunelog: read log: %w", err)
	}
	return skipped, nil
}

// Add inserts one record, reporting whether it was new (false for an exact
// duplicate of an already-loaded record).
func (db *Database) Add(r Record) bool {
	id := r.identity()
	if db.seen[id] {
		return false
	}
	db.seen[id] = true
	db.records = append(db.records, r)
	key := r.Key()
	if i, ok := db.best[key]; !ok || r.ExecSec < db.records[i].ExecSec {
		db.best[key] = len(db.records) - 1
	}
	return true
}

// Size returns the number of distinct records loaded.
func (db *Database) Size() int { return len(db.records) }

// Skipped returns the number of corrupt or version-mismatched lines dropped
// during loads.
//
//lint:allow deadexport tunelog_test.go and journal_repair_test.go check what a load drops
func (db *Database) Skipped() int { return db.skipped }

// Records returns the distinct records in load order (shared slice; treat as
// read-only).
func (db *Database) Records() []Record { return db.records }

// Best returns the record with the lowest measured execution time for the
// (workload fingerprint, target) key, if any. Ties keep the earliest record,
// so equal-quality re-measurements never change the warm-start choice.
func (db *Database) Best(workload, target string) (Record, bool) {
	i, ok := db.best[Record{Workload: workload, Target: target}.Key()]
	if !ok {
		return Record{}, false
	}
	return db.records[i], true
}
