package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// records is Registry.Records, failing the test on a read error.
func records(t *testing.T, r *Registry) []tunelog.Record {
	t.Helper()
	recs, err := r.b.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	return recs
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
	sb, err := openSharded(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
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

// TestCompactionPreservesBestsAndForce: once superseded records dominate, the
// shard journal is rewritten down to its per-key bests — and the rewrite must
// keep the best map exactly, Force heals included, for both the live handle
// and a from-scratch rebuild.
func TestCompactionPreservesBestsAndForce(t *testing.T) {
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSharded)
	sb := r.b.(*shardedBackend)
	sb.compactMin, sb.compactFactor = 8, 2
	// One hot key accumulating improvements, then a Force heal, then no-op
	// worse records so the heal stays the best through compaction.
	for i := 0; i < 6; i++ {
		if _, err := r.Publish(synthRecord("w@hot", "harl", float64(20-i)*1e-5, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	heal := synthRecord("w@hot", "harl", 5e-4, 7)
	heal.Force = true
	if _, err := r.PublishBatch([]tunelog.Record{heal}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := r.Publish(synthRecord("w@hot", "harl", float64(30+i)*1e-4, 8+i)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 15 records over 1 key (min %d, factor %g): %+v",
			sb.compactMin, sb.compactFactor, st)
	}
	want := records(t, r)
	if got, ok := resolve(t, r, "w@hot", heal.Target, "harl"); !ok || got != heal {
		t.Fatalf("live resolve after compaction = %+v, %v; want the heal", got, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The compacted journal holds exactly the live bests.
	journals := shardJournals(t, dir)
	if len(journals) != 1 {
		t.Fatalf("hot key spread across %d shard journals, want 1", len(journals))
	}
	if lines := countLines(t, journals[0]); lines != 1 {
		t.Fatalf("compacted shard journal holds %d records, want 1 (the best)", lines)
	}
	// A from-scratch rebuild replays only the compacted journal and must land
	// on the identical best map.
	fresh := openLayout(t, dir, LayoutSharded)
	defer fresh.Close()
	sameBests(t, "after compaction rebuild", records(t, fresh), want)
	if rec, ok := resolve(t, fresh, "w@hot", heal.Target, "harl"); !ok || rec != heal {
		t.Fatalf("heal lost across compaction rebuild: %+v, %v", rec, ok)
	}
}

// TestImportCompactsHotShard: with the default thresholds, importing a
// network-sized journal — 80 records of one key, about what a BERT tune logs
// per subgraph — compacts its shard on the spot, so a later hit parses one
// line instead of eighty.
func TestImportCompactsHotShard(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "tune.jsonl")
	jr, err := tunelog.OpenJournal(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if err := jr.Append(synthRecord("w@bert-sg", "harl", float64(100-i)*1e-6, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLayout(t, filepath.Join(dir, "reg"), LayoutSharded)
	defer r.Close()
	if _, err := r.ImportJournal(logPath); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Compactions < 1 || st.Records != 1 {
		t.Fatalf("import of 80 records over 1 key: %d compactions, %d records; want ≥ 1 and 1", st.Compactions, st.Records)
	}
	journals := shardJournals(t, filepath.Join(dir, "reg"))
	if len(journals) != 1 {
		t.Fatalf("one key spread across %d shard journals", len(journals))
	}
	if lines := countLines(t, journals[0]); lines != 1 {
		t.Fatalf("compacted shard journal holds %d records, want 1", lines)
	}
	if got, ok := resolve(t, r, "w@bert-sg", "cpu-xeon6226r", "harl"); !ok || got.Trial != 80 {
		t.Fatalf("hot key after compaction = %+v, %v; want the trial-80 best", got, ok)
	}
}

// TestGenerationDetectsSameStampRewrite: the file-stamp blind spot. A journal
// rewrite that lands on the same size and mtime is invisible to
// fileStamp{size,mtime}; the shard generation counter is what makes a
// resident handle notice. The test first demonstrates the blind spot (rewrite
// without a generation bump goes unseen), then the cure.
func TestGenerationDetectsSameStampRewrite(t *testing.T) {
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSharded)
	defer r.Close()
	sb := r.b.(*shardedBackend)
	recA := synthRecord("w@gen-00000", "harl", 1e-4, 1)
	// Find a second workload that routes to the SAME shard with the SAME
	// marshaled line length, so the rewritten journal can match the original's
	// byte size exactly.
	lineA, err := recA.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	var recB tunelog.Record
	found := false
	for i := 1; i < 100000 && !found; i++ {
		cand := synthRecord(fmt.Sprintf("w@gen-%05d", i), "harl", 1e-4, 1)
		if sb.shardFor(cand.Workload) != sb.shardFor(recA.Workload) {
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
	// Rewrite the journal with different content of identical size and
	// restore the mtime — the stamp collision a real compaction by another
	// process can produce.
	lineB, err := recB.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(lineB, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}
	if st2, err := os.Stat(path); err != nil || st2.Size() != st.Size() || !st2.ModTime().Equal(st.ModTime()) {
		t.Fatalf("rewrite did not preserve the stamp: %v size %d->%d", err, st.Size(), st2.Size())
	}
	// Blind spot: without a generation bump the resident handle cannot see the
	// rewrite — recB misses even though it is on disk.
	if _, ok := resolve(t, r, recB.Workload, recB.Target, "harl"); ok {
		t.Fatal("stamp-identical rewrite was detected without a generation bump; the blind spot this test guards no longer exists")
	}
	// The cure: bump the shard generation, exactly as compaction does.
	shardDir := filepath.Dir(path)
	h, err := readShardHeader(shardDir)
	if err != nil {
		t.Fatal(err)
	}
	h.Generation++
	h.Keys, h.Records = 1, 1
	if err := writeShardHeader(shardDir, h); err != nil {
		t.Fatal(err)
	}
	if got, ok := resolve(t, r, recB.Workload, recB.Target, "harl"); !ok || got != recB {
		t.Fatalf("generation bump did not trigger a reload: %+v, %v", got, ok)
	}
}

// TestShardCacheBoundsResidency: the LRU must keep at most cacheCap shard
// indexes in memory while Len and Records still cover everything.
func TestShardCacheBoundsResidency(t *testing.T) {
	r := openLayout(t, t.TempDir(), LayoutSharded)
	defer r.Close()
	r.b.(*shardedBackend).cacheCap = 2
	const keys = 64
	recs := make([]tunelog.Record, 0, keys)
	for i := 0; i < keys; i++ {
		recs = append(recs, synthRecord(fmt.Sprintf("w@lru-%02d", i), "harl", float64(i+1)*1e-5, i+1))
	}
	if _, err := r.PublishBatch(recs); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.ResidentShards > 2 {
		t.Fatalf("%d resident shards, cache cap 2", st.ResidentShards)
	}
	if r.Len() != keys {
		t.Fatalf("Len = %d with evicted shards, want %d", r.Len(), keys)
	}
	// Every key still resolves (cold shards reload through the LRU).
	for _, rec := range recs {
		if got, ok := resolve(t, r, rec.Workload, rec.Target, "harl"); !ok || got != rec {
			t.Fatalf("evicted key %s: %+v, %v", rec.Workload, got, ok)
		}
		if st := r.Stats(); st.ResidentShards > 2 {
			t.Fatalf("%d resident shards after resolving %s, cache cap 2", st.ResidentShards, rec.Workload)
		}
	}
	if got := records(t, r); len(got) != keys {
		t.Fatalf("Records covers %d keys, want %d", len(got), keys)
	}
	// Records loads every shard; the bound must hold afterwards too.
	if st := r.Stats(); st.ResidentShards > 2 {
		t.Fatalf("%d resident shards after full enumeration, cache cap 2", st.ResidentShards)
	}
}
