package tunelog

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"harl/internal/schedule"
	"harl/internal/sketch"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// sampleSchedule returns a random but deterministic schedule of the workload
// plus its sketch list.
func sampleSchedule(seed uint64) (*schedule.Schedule, []*sketch.Sketch) {
	sg := workload.GEMM("g", 1, 64, 64, 64)
	sketches := sketch.Generate(sg)
	rng := xrand.New(seed)
	sk := sketches[rng.Intn(len(sketches))]
	return schedule.NewRandom(sk, 4, rng), sketches
}

func TestRecordRoundTrip(t *testing.T) {
	// serialize → append → load → deserialize must yield a byte-identical
	// schedule and an equal simulated exec time.
	sg := workload.GEMM("g", 1, 64, 64, 64)
	sketches := sketch.Generate(sg)
	rng := xrand.New(3)
	var buf bytes.Buffer
	jr := NewJournal(&buf)
	var want []Record
	for i := 0; i < 8; i++ {
		s := schedule.NewRandom(sketches[rng.Intn(len(sketches))], 4, rng)
		rec := NewRecord(sg, "cpu-xeon6226r", "harl", s, float64(i+1)*1e-5, i+1, 42)
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	db := NewDatabase()
	if err := db.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if db.Size() != len(want) {
		t.Fatalf("loaded %d of %d records", db.Size(), len(want))
	}
	for i, got := range db.Records() {
		if got != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got, want[i])
		}
		s, err := got.Schedule(sketches)
		if err != nil {
			t.Fatal(err)
		}
		if s.MarshalSteps() != want[i].Steps {
			t.Fatalf("steps round-trip: %q != %q", s.MarshalSteps(), want[i].Steps)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		if got.ExecSec != want[i].ExecSec {
			t.Fatalf("exec time drifted: %v != %v", got.ExecSec, want[i].ExecSec)
		}
	}
}

func TestDatabaseDeduplicates(t *testing.T) {
	s, _ := sampleSchedule(1)
	sg := workload.GEMM("g", 1, 64, 64, 64)
	rec := NewRecord(sg, "cpu", "harl", s, 1e-5, 1, 7)
	db := NewDatabase()
	if !db.Add(rec) {
		t.Fatal("first add must be new")
	}
	if db.Add(rec) {
		t.Fatal("duplicate add must be rejected")
	}
	// A record differing in any field is distinct.
	rec2 := rec
	rec2.Trial = 2
	if !db.Add(rec2) {
		t.Fatal("distinct record rejected")
	}
	if db.Size() != 2 {
		t.Fatalf("size %d", db.Size())
	}

	// Duplicate journal appends also collapse on load.
	var buf bytes.Buffer
	line, _ := rec.MarshalLine()
	buf.Write(append(line, '\n'))
	buf.Write(append(line, '\n'))
	db2 := NewDatabase()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if db2.Size() != 1 {
		t.Fatalf("duplicate appends loaded as %d records", db2.Size())
	}
}

func TestDatabaseBest(t *testing.T) {
	sg := workload.GEMM("g", 1, 64, 64, 64)
	s, _ := sampleSchedule(1)
	db := NewDatabase()
	for i, exec := range []float64{3e-5, 1e-5, 2e-5} {
		db.Add(NewRecord(sg, "cpu", "harl", s, exec, i+1, 7))
	}
	rec, ok := db.Best(sg.Fingerprint(), "cpu")
	if !ok || rec.ExecSec != 1e-5 {
		t.Fatalf("best = %+v ok=%v", rec, ok)
	}
	if _, ok := db.Best(sg.Fingerprint(), "gpu"); ok {
		t.Fatal("best for unknown target must miss")
	}
	if _, ok := db.Best("other@0", "cpu"); ok {
		t.Fatal("best for unknown workload must miss")
	}
}

func TestDatabaseToleratesCorruptLines(t *testing.T) {
	sg := workload.GEMM("g", 1, 64, 64, 64)
	s, _ := sampleSchedule(1)
	good1 := NewRecord(sg, "cpu", "harl", s, 1e-5, 1, 7)
	good2 := NewRecord(sg, "cpu", "harl", s, 2e-5, 2, 7)
	l1, _ := good1.MarshalLine()
	l2, _ := good2.MarshalLine()
	futureVersion := strings.Replace(string(l1), `"v":1`, `"v":99`, 1)
	input := strings.Join([]string{
		string(l1),
		"not json at all",
		`{"v":1,"workload":"w","target":"t"}`, // incomplete record
		string(l2[:len(l2)/2]),                // truncated trailing write
		futureVersion,                         // unknown schema version
		"",                                    // blank line
		string(l2),
	}, "\n")
	db := NewDatabase()
	if err := db.Load(strings.NewReader(input)); err != nil {
		t.Fatal(err)
	}
	if db.Size() != 2 {
		t.Fatalf("loaded %d records from corrupt journal, want 2", db.Size())
	}
	if db.Skipped() != 4 {
		t.Fatalf("skipped %d corrupt lines, want 4", db.Skipped())
	}
}

func TestJournalFileAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.jsonl")
	sg := workload.GEMM("g", 1, 64, 64, 64)
	s, _ := sampleSchedule(1)

	// Two separate journal sessions must accumulate, not truncate.
	for session := 0; session < 2; session++ {
		jr, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := jr.Append(NewRecord(sg, "cpu", "harl", s, float64(session+1)*1e-5, session+1, 7)); err != nil {
			t.Fatal(err)
		}
		if err := jr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 2 {
		t.Fatalf("size %d after two sessions", db.Size())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("missing log must error")
	}
}

func TestJournalRetainsFirstError(t *testing.T) {
	jr := NewJournal(failWriter{})
	s, _ := sampleSchedule(1)
	sg := workload.GEMM("g", 1, 64, 64, 64)
	if err := jr.Append(NewRecord(sg, "cpu", "harl", s, 1e-5, 1, 7)); err == nil {
		t.Fatal("write error must surface")
	}
	if jr.Close() == nil {
		t.Fatal("error must be retained")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

// closeFailWriter writes successfully but fails on Close — the shape of a
// buffered flush error surfacing only at close time.
type closeFailWriter struct{ err error }

func (closeFailWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w closeFailWriter) Close() error              { return w.err }

// allFailWriter fails both Write and Close.
type allFailWriter struct{ err error }

func (allFailWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }
func (w allFailWriter) Close() error            { return w.err }

func TestJournalClosePropagatesCloserError(t *testing.T) {
	boom := fmt.Errorf("flush failed at close")
	jr := NewJournalWriteCloser(closeFailWriter{err: boom})
	s, _ := sampleSchedule(1)
	sg := workload.GEMM("g", 1, 64, 64, 64)
	if err := jr.Append(NewRecord(sg, "cpu", "harl", s, 1e-5, 1, 7)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := jr.Close(); err == nil || !strings.Contains(err.Error(), "flush failed at close") {
		t.Fatalf("Close = %v, want the closer's error", err)
	}
	// The close failure is retained like a write failure: closing again
	// still reports it.
	if jr.Close() == nil {
		t.Fatal("close error must be retained")
	}
	// A write error that happened first wins over the close error.
	jr2 := NewJournalWriteCloser(allFailWriter{err: boom})
	if err := jr2.Append(NewRecord(sg, "cpu", "harl", s, 1e-5, 1, 7)); err == nil {
		t.Fatal("write error must surface")
	}
	if err := jr2.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Close after failed write = %v, want the sticky write error", err)
	}
}

// syncFailWriter writes successfully but fails its fsync.
type syncFailWriter struct{ closeFailWriter }

func (syncFailWriter) Sync() error { return fmt.Errorf("fsync failed") }

func TestJournalSync(t *testing.T) {
	s, _ := sampleSchedule(1)
	sg := workload.GEMM("g", 1, 64, 64, 64)
	rec := NewRecord(sg, "cpu", "harl", s, 1e-5, 1, 7)
	// A file journal syncs; a plain writer has nothing to sync.
	jr, err := OpenJournal(filepath.Join(t.TempDir(), "tune.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Journal{jr, NewJournal(&bytes.Buffer{})} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := j.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A failed fsync is retained like a write error: Close reports it.
	bad := NewJournalWriteCloser(syncFailWriter{})
	if err := bad.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := bad.Sync(); err == nil || !strings.Contains(err.Error(), "fsync failed") {
		t.Fatalf("Sync = %v, want the fsync error", err)
	}
	if err := bad.Close(); err == nil || !strings.Contains(err.Error(), "fsync failed") {
		t.Fatalf("Close after a failed Sync = %v, want the fsync error", err)
	}
}

// TestScanFileReplaysEveryLine: ScanFile hands over every well-formed line in
// file order, exact duplicates included (LoadFile's database drops them),
// skips and counts corrupt ones, reads a final line with no newline, and
// grows its file-sized first buffer for a line longer than 64 KiB.
func TestScanFileReplaysEveryLine(t *testing.T) {
	s, _ := sampleSchedule(1)
	sg := workload.GEMM("g", 1, 64, 64, 64)
	a := NewRecord(sg, "cpu", "harl", s, 2e-5, 1, 7)
	b := NewRecord(sg, "cpu", "harl", s, 1e-5, 2, 7)
	long := a
	long.Steps = strings.Repeat("x", 100<<10)
	var buf bytes.Buffer
	for _, rec := range []Record{a, b, a, long} {
		line, err := rec.MarshalLine()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	buf.WriteString("{torn\n")
	line, err := a.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(line)
	path := filepath.Join(t.TempDir(), "tune.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []Record
	skipped, err := ScanFile(path, func(r Record) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{a, b, a, long, a}
	if skipped != 1 || len(got) != len(want) {
		t.Fatalf("scanned %d records, skipped %d; want %d and 1", len(got), skipped, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got trial %d, want trial %d", i, got[i].Trial, want[i].Trial)
		}
	}
	db, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 3 || db.Skipped() != 1 {
		t.Fatalf("LoadFile kept %d records, skipped %d; want the 3 distinct and 1", db.Size(), db.Skipped())
	}
	if _, err := ScanFile(filepath.Join(t.TempDir(), "absent.jsonl"), func(Record) {}); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ScanFile of a missing file = %v, want fs.ErrNotExist", err)
	}
}

func TestParseLineRejectsNonPositiveExec(t *testing.T) {
	for _, exec := range []string{"0", "-1e-5"} {
		line := fmt.Sprintf(`{"v":1,"workload":"w@0","target":"cpu","scheduler":"harl","steps":"sk=0 ca=0 pf=0 ur=0/1","exec_sec":%s,"trial":1,"seed":1}`, exec)
		if _, err := ParseLine([]byte(line)); err == nil {
			t.Fatalf("exec %s must be rejected", exec)
		}
	}
}

func TestJournalLinesAreSelfContained(t *testing.T) {
	// Every journal line must parse back to the exact record — the property
	// the resume path and cross-run dedup depend on.
	var buf bytes.Buffer
	jr := NewJournal(&buf)
	sg := workload.GEMM("g", 1, 64, 64, 64)
	s, _ := sampleSchedule(9)
	want := NewRecord(sg, "gpu-rtx3090", "ansor", s, 3.141592653589793e-5, 17, 123456789)
	if err := jr.Append(want); err != nil {
		t.Fatal(err)
	}
	got, err := ParseLine(bytes.TrimSpace(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("parsed %+v want %+v", got, want)
	}
}

func TestJournalFilePersistsAcrossProcessesShape(t *testing.T) {
	// Sanity on the on-disk shape: one JSON object per line, newline
	// terminated, so `wc -l` equals the record count and tail -f works.
	path := filepath.Join(t.TempDir(), "tune.jsonl")
	jr, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sg := workload.GEMM("g", 1, 64, 64, 64)
	s, _ := sampleSchedule(2)
	for i := 0; i < 3; i++ {
		if err := jr.Append(NewRecord(sg, "cpu", "harl", s, float64(i+1)*1e-5, i+1, 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Fatal("journal must end with a newline")
	}
	if n := bytes.Count(data, []byte("\n")); n != 3 {
		t.Fatalf("%d lines for 3 records", n)
	}
}

func TestJournalAdvisoryLockExcludesSecondWriter(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("advisory flock is unix-only")
	}
	path := filepath.Join(t.TempDir(), "tune.jsonl")
	jr, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("second concurrent OpenJournal on one file must fail (advisory lock)")
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the file: a fresh session opens cleanly.
	jr2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	jr2.Close()
}
