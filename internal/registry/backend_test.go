package registry

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"harl/internal/tunelog"
)

// The conformance suite: every storage layout must satisfy the same
// contract — publish/resolve round trips, journal imports, Force heals,
// refresh after a foreign append, race-free concurrent use, and the
// reload-on-append-failure durability invariant. Each case runs against both
// layouts; layout-specific behavior (shard residency, rename-replace
// detection, imports' appended lines, migration, v1 locking) lives in
// shard_test.go.

var conformanceLayouts = []Layout{LayoutSingle, LayoutSharded}

// openLayout opens a registry with the given layout.
func openLayout(t testing.TB, dir string, layout Layout) *Registry {
	t.Helper()
	r, err := OpenOptions(dir, Options{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// synthRecord builds a schema-valid record with an arbitrary fingerprint —
// journals store and route records without reconstructing schedules, so
// conformance tests are free to use cheap synthetic keys.
func synthRecord(w, scheduler string, exec float64, trial int) tunelog.Record {
	return tunelog.Record{V: tunelog.SchemaVersion, Workload: w, Target: "cpu-xeon6226r",
		Scheduler: scheduler, Steps: "steps:" + w, ExecSec: exec, Trial: trial, Seed: 1}
}

// setJournalHook substitutes the registry's journal opener (the
// append-failure injection seam) and returns a restore func.
func setJournalHook(r *Registry, hook func(string) (*tunelog.Journal, error)) func() {
	old := r.openJournal
	r.openJournal = hook
	return func() { r.openJournal = old }
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestBackendConformance(t *testing.T) {
	for _, layout := range conformanceLayouts {
		t.Run(string(layout), func(t *testing.T) {
			t.Run("RoundTripAndReopen", func(t *testing.T) { testRoundTripAndReopen(t, layout) })
			t.Run("AnySchedulerScan", func(t *testing.T) { testAnySchedulerScan(t, layout) })
			t.Run("ImportJournal", func(t *testing.T) { testImportJournal(t, layout) })
			t.Run("ReplaceHealSurvivesReopen", func(t *testing.T) { testReplaceHealSurvivesReopen(t, layout) })
			t.Run("RefreshAfterForeignAppend", func(t *testing.T) { testRefreshAfterForeignAppend(t, layout) })
			t.Run("ConcurrentResolveDuringPublish", func(t *testing.T) { testConcurrentResolveDuringPublish(t, layout) })
			t.Run("AppendFailureReloadsState", func(t *testing.T) { testAppendFailureReloadsState(t, layout) })
			t.Run("CloseFailureSurfacesAndReloads", func(t *testing.T) { testCloseFailureSurfacesAndReloads(t, layout) })
		})
	}
}

func testRoundTripAndReopen(t *testing.T, layout Layout) {
	dir := t.TempDir()
	r := openLayout(t, dir, layout)
	rec := synthRecord("w@rt", "harl", 2e-4, 1)
	improved, err := r.Publish(rec)
	if err != nil || !improved {
		t.Fatalf("first publish: improved=%v err=%v", improved, err)
	}
	if improved, err = r.Publish(synthRecord("w@rt", "harl", 5e-4, 2)); err != nil || improved {
		t.Fatalf("worse record: improved=%v err=%v", improved, err)
	}
	best := synthRecord("w@rt", "harl", 1e-4, 3)
	if improved, err = r.Publish(best); err != nil || !improved {
		t.Fatalf("better record: improved=%v err=%v", improved, err)
	}
	if got, ok := resolve(t, r, "w@rt", best.Target, "harl"); !ok || got != best {
		t.Fatalf("Resolve = %+v, %v; want the published best", got, ok)
	}
	if _, ok := resolve(t, r, "w@rt", "gpu-rtx3090", "harl"); ok {
		t.Fatal("miss expected for an untuned target")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with auto-detection: the layout choice must be sticky on disk and
	// the state survive the process boundary through the journal(s).
	r2 := openLayout(t, dir, LayoutAuto)
	defer r2.Close()
	if r2.Layout() != layout {
		t.Fatalf("auto reopen detected %q, want %q", r2.Layout(), layout)
	}
	if got, ok := resolve(t, r2, "w@rt", best.Target, "harl"); !ok || got != best {
		t.Fatalf("after reopen Resolve = %+v, %v", got, ok)
	}
}

func testAnySchedulerScan(t *testing.T, layout Layout) {
	r := openLayout(t, t.TempDir(), layout)
	defer r.Close()
	hr := synthRecord("w@any", "harl", 2e-4, 1)
	an := synthRecord("w@any", "ansor", 1e-4, 1)
	for _, rec := range []tunelog.Record{hr, an} {
		if _, err := r.Publish(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := resolve(t, r, "w@any", hr.Target, ""); !ok || got != an {
		t.Fatalf("empty scheduler must resolve the overall best; got %+v", got)
	}
}

func testImportJournal(t *testing.T, layout Layout) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "tune.jsonl")
	jr, err := tunelog.OpenJournal(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var best tunelog.Record
	for i := 0; i < 8; i++ {
		rec := synthRecord("w@imp", "harl", float64(8-i)*1e-5, i+1)
		if i == 7 {
			best = rec
		}
		if err := jr.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	r := openLayout(t, filepath.Join(dir, "reg"), layout)
	defer r.Close()
	improved, err := r.ImportJournal(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if improved != 8 {
		t.Fatalf("improved %d of 8 strictly descending records", improved)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1 key", r.Len())
	}
	if got, ok := resolve(t, r, "w@imp", best.Target, "harl"); !ok || got != best {
		t.Fatalf("Resolve after import = %+v, %v", got, ok)
	}
	// Re-importing the same journal is a durable no-op.
	if improved, err := r.ImportJournal(logPath); err != nil || improved != 0 {
		t.Fatalf("re-import: improved=%d err=%v", improved, err)
	}
}

func testReplaceHealSurvivesReopen(t *testing.T, layout Layout) {
	dir := t.TempDir()
	r := openLayout(t, dir, layout)
	poisoned := synthRecord("w@heal", "harl", 1e-9, 1) // unbeatably fast
	if _, err := r.Publish(poisoned); err != nil {
		t.Fatal(err)
	}
	heal := synthRecord("w@heal", "harl", 3e-4, 2)
	heal.Force = true
	if _, err := r.PublishBatch([]tunelog.Record{heal}); err != nil {
		t.Fatal(err)
	}
	if got, ok := resolve(t, r, "w@heal", heal.Target, "harl"); !ok || got != heal {
		t.Fatalf("Resolve after the Force publish = %+v, %v; want the forced heal", got, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The heal must be durable: a rebuild replays the journal in order and the
	// Force record wins again.
	r2 := openLayout(t, dir, layout)
	defer r2.Close()
	if got, ok := resolve(t, r2, "w@heal", heal.Target, "harl"); !ok || got != heal {
		t.Fatalf("heal lost across reopen: %+v, %v", got, ok)
	}
}

func testRefreshAfterForeignAppend(t *testing.T, layout Layout) {
	dir := t.TempDir()
	a := openLayout(t, dir, layout)
	defer a.Close()
	b := openLayout(t, dir, layout)
	defer b.Close()
	recA := synthRecord("w@fa", "harl", 2e-4, 1)
	recB := synthRecord("w@fb", "ansor", 3e-4, 1)
	if _, err := a.Publish(recA); err != nil {
		t.Fatalf("writer A: %v", err)
	}
	if _, err := b.Publish(recB); err != nil {
		t.Fatalf("writer B alongside A: %v", err)
	}
	// Cross-visibility without reopening: each handle's miss re-checks the
	// durable state and folds in the other writer's append.
	if got, ok := resolve(t, b, "w@fa", recA.Target, "harl"); !ok || got != recA {
		t.Fatalf("writer B does not see writer A's record: %+v, %v", got, ok)
	}
	if got, ok := resolve(t, a, "w@fb", recB.Target, "ansor"); !ok || got != recB {
		t.Fatalf("writer A does not see writer B's record: %+v, %v", got, ok)
	}
	fresh := openLayout(t, dir, layout)
	defer fresh.Close()
	if fresh.Len() != 2 {
		t.Fatalf("fresh open sees %d keys, want both writers' records", fresh.Len())
	}
}

func testConcurrentResolveDuringPublish(t *testing.T, layout Layout) {
	r := openLayout(t, t.TempDir(), layout)
	defer r.Close()
	const readers = 8
	const publishes = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec, ok, err := r.Resolve("w@race", "cpu-xeon6226r", "harl")
				if err != nil {
					t.Error(err)
					return
				}
				if ok && (rec.Workload == "" || rec.Steps == "" || rec.ExecSec <= 0) {
					t.Error("torn record observed")
					return
				}
			}
		}()
	}
	for i := 0; i < publishes; i++ {
		if _, err := r.Publish(synthRecord("w@race", "harl", float64(publishes-i)*1e-6, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if rec, ok := resolve(t, r, "w@race", "cpu-xeon6226r", "harl"); !ok || fmt.Sprintf("%.0e", rec.ExecSec) != "1e-06" {
		t.Fatalf("final best = %+v, %v", rec, ok)
	}
}

// testAppendFailureReloadsState is the S2 durability regression: when an
// append fails mid-batch, the in-memory state must be reloaded from disk.
// An index that kept claiming the failed record would reject a RETRY of the
// same publish as no improvement, and the record would be silently lost until
// restart.
func testAppendFailureReloadsState(t *testing.T, layout Layout) {
	dir := t.TempDir()
	r := openLayout(t, dir, layout)
	rec1 := synthRecord("w@fail", "harl", 2e-4, 1)
	if _, err := r.PublishBatch([]tunelog.Record{rec1}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected write failure")
	restore := setJournalHook(r, func(string) (*tunelog.Journal, error) {
		return tunelog.NewJournal(failingWriter{boom}), nil
	})
	rec2 := synthRecord("w@fail", "harl", 1e-4, 2)
	if _, err := r.PublishBatch([]tunelog.Record{rec2}); !errors.Is(err, boom) {
		t.Fatalf("append through failing writer: err=%v, want the injected failure", err)
	}
	restore()
	// The retry must re-append: the journal never got rec2.
	n, err := r.PublishBatch([]tunelog.Record{rec2})
	if err != nil {
		t.Fatalf("retry after failed append: %v", err)
	}
	if n != 1 {
		t.Fatal("retried record was rejected: in-memory state claimed a record the journal never got")
	}
	if got, ok := resolve(t, r, "w@fail", rec2.Target, "harl"); !ok || got != rec2 {
		t.Fatalf("Resolve after retry = %+v, %v", got, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Durability proof: a fresh open replays the journal alone.
	fresh := openLayout(t, dir, layout)
	defer fresh.Close()
	if got, ok := resolve(t, fresh, "w@fail", rec2.Target, "harl"); !ok || got != rec2 {
		t.Fatalf("retried record not durable: %+v, %v", got, ok)
	}
}

// writeOKCloseFail writes successfully but fails on Close — an fsync-or-flush
// error that only surfaces when the journal handle is released.
type writeOKCloseFail struct{ err error }

func (writeOKCloseFail) Write(p []byte) (int, error) { return len(p), nil }
func (w writeOKCloseFail) Close() error              { return w.err }

// testCloseFailureSurfacesAndReloads is the errclose regression: a journal
// close error after otherwise-successful appends must reach the publisher
// (not vanish into a discarded Close) and must trip the same reload-from-disk
// path as a write failure — records the close may not have made durable must
// not stay in the index, or a retry would be rejected as no improvement and
// lost.
func testCloseFailureSurfacesAndReloads(t *testing.T, layout Layout) {
	dir := t.TempDir()
	r := openLayout(t, dir, layout)
	defer r.Close()
	boom := errors.New("injected close failure")
	restore := setJournalHook(r, func(string) (*tunelog.Journal, error) {
		return tunelog.NewJournalWriteCloser(writeOKCloseFail{boom}), nil
	})
	rec := synthRecord("w@closefail", "harl", 1e-4, 1)
	if _, err := r.PublishBatch([]tunelog.Record{rec}); !errors.Is(err, boom) {
		t.Fatalf("publish through close-failing journal: err=%v, want the injected close failure", err)
	}
	restore()
	// The retry must re-append: the failed close means the journal never
	// durably got the record, so the index must not claim it.
	n, err := r.PublishBatch([]tunelog.Record{rec})
	if err != nil {
		t.Fatalf("retry after failed close: %v", err)
	}
	if n != 1 {
		t.Fatal("retried record was rejected: close failure left it in the index")
	}
	if got, ok := resolve(t, r, "w@closefail", rec.Target, "harl"); !ok || got != rec {
		t.Fatalf("Resolve after retry = %+v, %v", got, ok)
	}
}

// TestReopenedBestsEqualLive: a journal holds only the records that changed a
// best, and replaying it must rebuild the live best map exactly. Each case
// publishes a sequence of batches; afterwards the journals hold one line per
// reported improvement, and a reopened handle's bests equal the live ones and
// the case's expected winners. The exact-duplicate Force heal is the case a
// replay that dropped repeated lines would get wrong.
func TestReopenedBestsEqualLive(t *testing.T) {
	heal := func(rec tunelog.Record) tunelog.Record { rec.Force = true; return rec }
	a1 := synthRecord("w@a", "harl", 2e-4, 1)
	a2 := synthRecord("w@a", "harl", 1e-4, 2)
	aTie := synthRecord("w@a", "harl", 1e-4, 3)
	aSlow := synthRecord("w@a", "harl", 5e-4, 4)
	aHeal := heal(synthRecord("w@a", "harl", 3e-4, 5))
	b1 := synthRecord("w@b", "ansor", 4e-4, 1)
	b2 := synthRecord("w@b", "ansor", 3e-4, 2)
	bHeal := heal(synthRecord("w@b", "ansor", 6e-4, 3))
	cases := []struct {
		name    string
		batches [][]tunelog.Record
		want    []tunelog.Record // the expected bests, in key order
	}{
		{"Ties", [][]tunelog.Record{{a2}, {aTie}, {a2, aTie}}, []tunelog.Record{a2}},
		{"ImproveAndWorse", [][]tunelog.Record{{a1, aSlow, a2}, {aSlow}}, []tunelog.Record{a2}},
		{"HealThenImprove", [][]tunelog.Record{{a2}, {aHeal}, {aSlow}, {a1}}, []tunelog.Record{a1}},
		{"HealEqualToBest", [][]tunelog.Record{{aHeal}, {aHeal}, {aHeal, aHeal}}, []tunelog.Record{aHeal}},
		{"ForceDuplicateAfterImprove", [][]tunelog.Record{{aHeal}, {a2}, {aHeal}}, []tunelog.Record{aHeal}},
		{"ForceDuplicateInOneBatch", [][]tunelog.Record{{aHeal, a2, aHeal, aSlow}}, []tunelog.Record{aHeal}},
		{"ReimportBeatsHeal", [][]tunelog.Record{{a1, a2}, {aHeal}, {a1, a2}}, []tunelog.Record{a2}},
		{"InterleavedKeys", [][]tunelog.Record{{a1, b1, a2}, {bHeal, aSlow, b2}, {aHeal, b1, bHeal}}, []tunelog.Record{aHeal, bHeal}},
	}
	for _, layout := range conformanceLayouts {
		for _, c := range cases {
			t.Run(string(layout)+"/"+c.name, func(t *testing.T) {
				dir := t.TempDir()
				r := openLayout(t, dir, layout)
				improved := 0
				for _, batch := range c.batches {
					n, err := r.PublishBatch(batch)
					if err != nil {
						t.Fatal(err)
					}
					improved += n
				}
				live := records(t, r)
				sameBests(t, "live", live, c.want)
				if got := r.Stats().Records; got != improved {
					t.Fatalf("%d journal records for %d improvements", got, improved)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				fresh := openLayout(t, dir, layout)
				defer fresh.Close()
				sameBests(t, "reopened", records(t, fresh), live)
			})
		}
	}
}
