package registry

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"harl/internal/tunelog"
)

// shardJournals returns the existing shard journal paths under dir.
func shardJournals(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, shardsDir, "*", journalFile))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func countLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), "\n")
}

// records returns every journal's bests sorted by key, loading the journals
// that are not loaded or are stale.
func records(t *testing.T, r *Registry) []tunelog.Record {
	t.Helper()
	r.idx.Lock()
	defer r.idx.Unlock()
	merged := make(map[string]tunelog.Record)
	for _, j := range r.journals {
		if !j.fresh() {
			if err := j.load(); err != nil {
				t.Fatalf("load %s: %v", j.path(), err)
			}
		}
		for k, rec := range j.best {
			merged[k] = rec
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]tunelog.Record, 0, len(keys))
	for _, k := range keys {
		out = append(out, merged[k])
	}
	return out
}

// checkTouchedLoaded fails the test unless exactly the shards holding recs'
// keys are loaded.
func checkTouchedLoaded(t *testing.T, r *Registry, recs []tunelog.Record) {
	t.Helper()
	touched := make(map[*journal]bool)
	for _, rec := range recs {
		touched[r.journalFor(rec.Workload)] = true
	}
	if st := r.Stats(); st.ResidentShards != len(touched) {
		t.Fatalf("%d resident shards, want the %d touched", st.ResidentShards, len(touched))
	}
	r.idx.RLock()
	defer r.idx.RUnlock()
	for j := range touched {
		if j.best == nil {
			t.Fatalf("touched shard %s not loaded", j.dir)
		}
	}
}

// sameBests fails the test unless got holds exactly want's records, in order.
func sameBests(t *testing.T, what string, got, want []tunelog.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bests, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: best %d diverged:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

func TestMigrateSingleToSharded(t *testing.T) {
	dir := t.TempDir()
	v1 := openLayout(t, dir, LayoutSingle)
	recs := []tunelog.Record{
		synthRecord("w@m1", "harl", 2e-4, 1),
		synthRecord("w@m1", "harl", 1e-4, 2),
		synthRecord("w@m2", "ansor", 3e-4, 1),
		synthRecord("w@m3", "harl", 4e-4, 1),
	}
	for _, rec := range recs {
		if _, err := v1.Publish(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A Force heal: its effect must survive the replay into shards.
	heal := synthRecord("w@m1", "harl", 5e-4, 3)
	heal.Force = true
	if _, err := v1.PublishBatch([]tunelog.Record{heal}); err != nil {
		t.Fatal(err)
	}
	want := records(t, v1)
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}
	// The index.json snapshot older binaries kept beside a v1 journal.
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Opening with the sharded layout migrates in place.
	r := openLayout(t, dir, LayoutSharded)
	defer r.Close()
	if r.Layout() != LayoutSharded {
		t.Fatalf("layout after migration = %q", r.Layout())
	}
	if _, err := os.Stat(filepath.Join(dir, journalFile)); !os.IsNotExist(err) {
		t.Fatalf("v1 journal still in place after migration: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.v1.jsonl")); err != nil {
		t.Fatalf("retired v1 journal missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(err) {
		t.Fatalf("stale v1 index survived migration: %v", err)
	}
	// The rebuild from shard journals must be record-for-record identical,
	// Force heal included.
	sameBests(t, "after migration", records(t, r), want)
	if rec, ok := resolve(t, r, "w@m1", heal.Target, "harl"); !ok || rec != heal {
		t.Fatalf("heal lost in migration: %+v, %v", rec, ok)
	}
	// Auto-detection now picks the sharded layout.
	if detectLayout(dir) != LayoutSharded {
		t.Fatal("migrated directory not detected as sharded")
	}
}

// TestInterruptedMigrationResumes: migrate creates shards/ first and retires
// the root journal last, so a kill in between leaves a directory detectLayout
// calls sharded with the v1 journal orphaned beside it. Opening must finish
// the migration — every v1 key back, Force heal included — at each kill
// point, under both the auto and the explicit sharded layout.
func TestInterruptedMigrationResumes(t *testing.T) {
	killPoints := map[string]func(t *testing.T, dir string, recs []tunelog.Record){
		"AfterMkdirAll": func(t *testing.T, dir string, _ []tunelog.Record) {
			if err := os.MkdirAll(filepath.Join(dir, shardsDir), 0o755); err != nil {
				t.Fatal(err)
			}
		},
		// Half the records landed, and the last append was torn mid-line.
		"HalfReplayedBatch": func(t *testing.T, dir string, recs []tunelog.Record) {
			replayInto(t, dir, recs[:len(recs)/2])
			journals := shardJournals(t, dir)
			st, err := os.Stat(journals[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(journals[0], st.Size()-5); err != nil {
				t.Fatal(err)
			}
		},
		"ReplayedBeforeRename": func(t *testing.T, dir string, recs []tunelog.Record) {
			replayInto(t, dir, recs)
		},
	}
	for name, kill := range killPoints {
		for layoutName, layout := range map[string]Layout{"auto": LayoutAuto, "sharded": LayoutSharded} {
			t.Run(name+"/"+layoutName, func(t *testing.T) {
				dir := t.TempDir()
				v1 := openLayout(t, dir, LayoutSingle)
				for i := 0; i < 12; i++ {
					if _, err := v1.Publish(synthRecord(fmt.Sprintf("w@im-%02d", i), "harl", float64(i+2)*1e-5, i+1)); err != nil {
						t.Fatal(err)
					}
				}
				heal := synthRecord("w@im-00", "harl", 5e-4, 13)
				heal.Force = true
				if _, err := v1.PublishBatch([]tunelog.Record{heal}); err != nil {
					t.Fatal(err)
				}
				want := records(t, v1)
				if err := v1.Close(); err != nil {
					t.Fatal(err)
				}
				db, err := tunelog.LoadFile(filepath.Join(dir, journalFile))
				if err != nil {
					t.Fatal(err)
				}
				kill(t, dir, db.Records())

				r := openLayout(t, dir, layout)
				defer r.Close()
				if r.Layout() != LayoutSharded {
					t.Fatalf("layout = %q", r.Layout())
				}
				if r.Len() != len(want) {
					t.Fatalf("reopen after interrupted migration sees %d keys, want %d", r.Len(), len(want))
				}
				sameBests(t, "after resumed migration", records(t, r), want)
				if _, err := os.Stat(filepath.Join(dir, journalFile)); !os.IsNotExist(err) {
					t.Fatalf("v1 journal still at the root: %v", err)
				}
				if _, err := os.Stat(filepath.Join(dir, "journal.v1.jsonl")); err != nil {
					t.Fatalf("retired v1 journal missing: %v", err)
				}
			})
		}
	}
}

// replayInto appends recs to dir's shards the way migrate's replay does,
// leaving the root journal in place.
func replayInto(t *testing.T, dir string, recs []tunelog.Record) {
	t.Helper()
	r, err := openSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.PublishBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotFiles reads every regular file under dir, keyed by relative path.
func snapshotFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestV1RegistryOpensUnmodified: a pre-existing single-file registry opened
// with the default (auto) layout resolves as before, and open, Resolve and
// Close leave every file byte-identical and add none — not even a shards
// tree. That includes the index.json older binaries wrote beside the journal.
func TestV1RegistryOpensUnmodified(t *testing.T) {
	dir := t.TempDir()
	v1 := openLayout(t, dir, LayoutSingle)
	rec := synthRecord("w@v1", "harl", 2e-4, 1)
	if _, err := v1.Publish(rec); err != nil {
		t.Fatal(err)
	}
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := snapshotFiles(t, dir)
	r := openLayout(t, dir, LayoutAuto)
	if r.Layout() != LayoutSingle {
		t.Fatalf("auto-detected %q for a v1 directory", r.Layout())
	}
	if got, ok := resolve(t, r, "w@v1", rec.Target, "harl"); !ok || got != rec {
		t.Fatalf("v1 resolve = %+v, %v", got, ok)
	}
	if _, ok := resolve(t, r, "w@absent", rec.Target, "harl"); ok {
		t.Fatal("v1 resolve hit an absent key")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	after := snapshotFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("opening a v1 registry changed its files: %d before, %d after", len(before), len(after))
	}
	for path, data := range before {
		if after[path] != data {
			t.Fatalf("opening a v1 registry modified %s", path)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, shardsDir)); !os.IsNotExist(err) {
		t.Fatal("opening a v1 registry created a shards tree")
	}
}

// TestAutoOpensNewRegistrySharded: the default layout for a directory that
// holds no registry yet — empty or not yet created — is sharded, and the
// shards/ tree it creates keeps later auto opens sharded.
func TestAutoOpensNewRegistrySharded(t *testing.T) {
	empty := t.TempDir()
	for _, dir := range []string{empty, filepath.Join(empty, "new")} {
		r := openLayout(t, dir, LayoutAuto)
		if r.Layout() != LayoutSharded {
			t.Fatalf("auto opened %s as %q, want sharded", dir, r.Layout())
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(filepath.Join(dir, shardsDir)); err != nil || !st.IsDir() {
			t.Fatalf("auto open of a new registry did not create %s: %v", shardsDir, err)
		}
		if detectLayout(dir) != LayoutSharded {
			t.Fatalf("%s not detected as sharded after its first open", dir)
		}
	}
}

func TestSingleLayoutRejectsShardedDir(t *testing.T) {
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSharded)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenOptions(dir, Options{Layout: LayoutSingle}); err == nil {
		t.Fatal("LayoutSingle over a sharded directory must refuse, not shadow the shards")
	}
}

// TestImportAppendsImprovingSubsequence: importing a tuning log appends
// exactly its improving subsequence — each record that beat every record
// before it — byte for byte, and importing it again appends nothing. The
// committed GEMM journal holds 96 records of one key, 12 of them improving.
func TestImportAppendsImprovingSubsequence(t *testing.T) {
	src := filepath.Join("..", "..", "examples", "pretrain", "gemm-cpu.jsonl")
	all, err := readJournal(src)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	improving, best := 0, math.Inf(1)
	for _, rec := range all {
		if rec.ExecSec >= best {
			continue
		}
		best = rec.ExecSec
		line, err := rec.MarshalLine()
		if err != nil {
			t.Fatal(err)
		}
		want.Write(append(line, '\n'))
		improving++
	}
	if len(all) != 96 || improving != 12 {
		t.Fatalf("the committed journal holds %d records, %d improving; want 96 and 12", len(all), improving)
	}
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSharded)
	defer r.Close()
	for pass, wantN := range []int{improving, 0} {
		n, err := r.ImportJournal(src)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantN || r.Stats().Records != improving || r.Len() != 1 {
			t.Fatalf("import %d: %d appended, %d records, %d keys; want %d, %d, 1",
				pass+1, n, r.Stats().Records, r.Len(), wantN, improving)
		}
		journals := shardJournals(t, dir)
		if len(journals) != 1 {
			t.Fatalf("one key spread across %d shard journals", len(journals))
		}
		got, err := os.ReadFile(journals[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("import %d: shard journal is not the improving subsequence:\n%s", pass+1, got)
		}
	}
}

// TestRenameReplaceDetectedAtSameStamp: older binaries still compact a shard
// by rename-replacing its journal, and the replacement can keep the old
// file's size and mtime. The inode changes with every rename, so a resident
// handle's miss still sees the new journal and reloads.
func TestRenameReplaceDetectedAtSameStamp(t *testing.T) {
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSharded)
	defer r.Close()
	recA := synthRecord("w@gen-00000", "harl", 1e-4, 1)
	// Find a second workload that routes to the SAME shard with the SAME
	// marshaled line length, so the replacement journal can match the
	// original's byte size exactly.
	lineA, err := recA.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	var recB tunelog.Record
	found := false
	for i := 1; i < 100000 && !found; i++ {
		cand := synthRecord(fmt.Sprintf("w@gen-%05d", i), "harl", 1e-4, 1)
		if r.journalFor(cand.Workload) != r.journalFor(recA.Workload) {
			continue
		}
		line, err := cand.MarshalLine()
		if err != nil {
			t.Fatal(err)
		}
		if len(line) == len(lineA) {
			recB, found = cand, true
		}
	}
	if !found {
		t.Fatal("no same-shard same-length sibling workload found")
	}
	if _, err := r.PublishBatch([]tunelog.Record{recA}); err != nil {
		t.Fatal(err)
	}
	if _, ok := resolve(t, r, recA.Workload, recA.Target, "harl"); !ok {
		t.Fatal("recA must resolve (and make its shard resident)")
	}
	journals := shardJournals(t, dir)
	if len(journals) != 1 {
		t.Fatalf("%d shard journals, want 1", len(journals))
	}
	path := journals[0]
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the journal the way a compaction does — write a temp file,
	// rename it over — with another record of identical size, and give it
	// the old mtime.
	lineB, err := recB.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(lineB, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(tmp, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
	if st2, err := os.Stat(path); err != nil || st2.Size() != st.Size() || !st2.ModTime().Equal(st.ModTime()) {
		t.Fatalf("replacement did not keep the stamp: %v size %d->%d", err, st.Size(), st2.Size())
	}
	if got, ok := resolve(t, r, recB.Workload, recB.Target, "harl"); !ok || got != recB {
		t.Fatalf("a same-size, same-mtime rename-replace went unseen: %+v, %v", got, ok)
	}
	if _, ok := resolve(t, r, recA.Workload, recA.Target, "harl"); ok {
		t.Fatal("recA still served from the replaced journal")
	}
}

// TestTouchedShardsStayLoaded: a shard index stays loaded once loaded, so
// resolving every key leaves exactly the touched shards loaded; before any
// load, Len and Stats count the never-loaded shards from their headers.
func TestTouchedShardsStayLoaded(t *testing.T) {
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSharded)
	const keys = 64
	recs := make([]tunelog.Record, 0, keys)
	for i := 0; i < keys; i++ {
		recs = append(recs, synthRecord(fmt.Sprintf("w@load-%02d", i), "harl", float64(i+1)*1e-5, i+1))
	}
	if _, err := r.PublishBatch(recs); err != nil {
		t.Fatal(err)
	}
	checkTouchedLoaded(t, r, recs)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := openLayout(t, dir, LayoutSharded)
	defer fresh.Close()
	if st := fresh.Stats(); st.ResidentShards != 0 || st.Records != keys || fresh.Len() != keys {
		t.Fatalf("reopened with %d resident shards, %d records, %d keys; want 0, %d, %d",
			st.ResidentShards, st.Records, fresh.Len(), keys, keys)
	}
	for i, rec := range recs {
		if got, ok := resolve(t, fresh, rec.Workload, rec.Target, "harl"); !ok || got != rec {
			t.Fatalf("key %s: %+v, %v", rec.Workload, got, ok)
		}
		checkTouchedLoaded(t, fresh, recs[:i+1])
		if st := fresh.Stats(); st.Records != keys || fresh.Len() != keys {
			t.Fatalf("after resolving %d keys: %d records, %d keys; want %d each", i+1, st.Records, fresh.Len(), keys)
		}
	}
	if got := records(t, fresh); len(got) != keys {
		t.Fatalf("the journals hold %d bests, want %d", len(got), keys)
	}
}

// TestBadHeaderCountsByLoading: header.json holds advisory counts rewritten
// in place without fsync, so a crash can leave one torn or missing. Opening
// then loads that shard to count it: Len and Stats stay exact, and only the
// shards with a bad header are loaded.
func TestBadHeaderCountsByLoading(t *testing.T) {
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSharded)
	const keys = 16
	for i := 0; i < keys; i++ {
		// Two improvements per key: records are twice the keys.
		for _, exec := range []float64{2e-4, 1e-4} {
			if _, err := r.Publish(synthRecord(fmt.Sprintf("w@hdr-%02d", i), "harl", exec, i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	journals := shardJournals(t, dir)
	if len(journals) < 2 {
		t.Fatalf("%d keys landed in %d shards, want at least 2", keys, len(journals))
	}
	if err := os.Remove(filepath.Join(filepath.Dir(journals[0]), shardHeaderFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(filepath.Dir(journals[1]), shardHeaderFile), []byte(`{"v":1,"ke`), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := openLayout(t, dir, LayoutSharded)
	defer fresh.Close()
	if st := fresh.Stats(); fresh.Len() != keys || st.Records != 2*keys || st.ResidentShards != 2 {
		t.Fatalf("reopened with %d keys, %d records, %d resident shards; want %d, %d, 2",
			fresh.Len(), st.Records, st.ResidentShards, keys, 2*keys)
	}
}

// TestV1PublishWaitsForJournalLock: a v1 publish locks journal.jsonl itself,
// the lock an older binary takes through tunelog.OpenJournal, so it waits
// while another handle holds the journal, completes once that handle closes,
// and adds no file to the directory.
func TestV1PublishWaitsForJournalLock(t *testing.T) {
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSingle)
	defer r.Close()
	if _, err := r.Publish(synthRecord("w@v1lock", "harl", 2e-4, 1)); err != nil {
		t.Fatal(err)
	}
	before := snapshotFiles(t, dir)
	holder, err := tunelog.OpenJournal(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	rec := synthRecord("w@v1lock", "harl", 1e-4, 2)
	done := make(chan error, 1)
	go func() {
		_, err := r.Publish(rec)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("publish returned (err=%v) while another handle held the journal", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish never proceeded after the holder closed")
	}
	for path := range snapshotFiles(t, dir) {
		if _, ok := before[path]; !ok {
			t.Fatalf("a v1 publish added %s", path)
		}
	}
	if got, ok := resolve(t, r, rec.Workload, rec.Target, "harl"); !ok || got != rec {
		t.Fatalf("Resolve after the wait = %+v, %v", got, ok)
	}
}
