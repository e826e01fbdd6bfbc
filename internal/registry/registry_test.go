package registry

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"harl/internal/schedule"
	"harl/internal/sketch"
	"harl/internal/tunelog"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// sampleRecord builds a deterministic record for the test GEMM workload.
func sampleRecord(seed uint64, scheduler string, exec float64, trial int) tunelog.Record {
	sg := workload.GEMM("g", 1, 64, 64, 64)
	sketches := sketch.Generate(sg)
	rng := xrand.New(seed)
	s := schedule.NewRandom(sketches[rng.Intn(len(sketches))], 4, rng)
	return tunelog.NewRecord(sg, "cpu-xeon6226r", scheduler, s, exec, trial, seed)
}

// resolve adapts the 3-value Resolve for tests that only assert hit/miss: a
// storage error is always fatal there.
func resolve(t *testing.T, r *Registry, w, target, scheduler string) (tunelog.Record, bool) {
	t.Helper()
	rec, ok, err := r.Resolve(w, target, scheduler)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	return rec, ok
}

func TestPublishResolveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord(1, "harl", 2e-4, 1)
	improved, err := r.Publish(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !improved {
		t.Fatal("first publish must improve")
	}
	// A worse record extends the journal but not the best.
	if improved, err = r.Publish(sampleRecord(2, "harl", 5e-4, 2)); err != nil || improved {
		t.Fatalf("worse record: improved=%v err=%v", improved, err)
	}
	// A better one takes over.
	best := sampleRecord(3, "harl", 1e-4, 3)
	if improved, err = r.Publish(best); err != nil || !improved {
		t.Fatalf("better record: improved=%v err=%v", improved, err)
	}
	got, ok := resolve(t, r, rec.Workload, rec.Target, "harl")
	if !ok || got != best {
		t.Fatalf("Resolve = %+v, %v; want the published best", got, ok)
	}
	if _, ok := resolve(t, r, rec.Workload, "gpu-rtx3090", "harl"); ok {
		t.Fatal("miss expected for an untuned target")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: state must survive the process boundary through the files.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, ok = resolve(t, r2, rec.Workload, rec.Target, "harl")
	if !ok || got != best {
		t.Fatalf("after reopen Resolve = %+v, %v; want the published best", got, ok)
	}
}

func TestResolveAnyScheduler(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	harl := sampleRecord(1, "harl", 2e-4, 1)
	ansor := sampleRecord(2, "ansor", 1e-4, 1)
	for _, rec := range []tunelog.Record{harl, ansor} {
		if _, err := r.Publish(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := resolve(t, r, harl.Workload, harl.Target, "")
	if !ok || got != ansor {
		t.Fatalf("empty scheduler must resolve the overall best; got %+v", got)
	}
}

func TestImportJournal(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "tune.jsonl")
	jr, err := tunelog.OpenJournal(logPath)
	if err != nil {
		t.Fatal(err)
	}
	var best tunelog.Record
	for i := 0; i < 8; i++ {
		rec := sampleRecord(uint64(i+1), "harl", float64(8-i)*1e-5, i+1)
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
	r, err := Open(filepath.Join(dir, "reg"))
	if err != nil {
		t.Fatal(err)
	}
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
	if got, ok := resolve(t, r, best.Workload, best.Target, "harl"); !ok || got != best {
		t.Fatalf("Resolve after import = %+v, %v", got, ok)
	}
}

// TestConcurrentResolveDuringPublish is the -race seam test: many readers
// resolving while a writer publishes strictly improving records must never
// race, and every reader observes either a miss or a complete record.
func TestConcurrentResolveDuringPublish(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	probe := sampleRecord(1, "harl", 1, 1)
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
				rec, ok, err := r.Resolve(probe.Workload, probe.Target, "harl")
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					if rec.Workload == "" || rec.Steps == "" || rec.ExecSec <= 0 {
						t.Error("torn record observed")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < publishes; i++ {
		rec := sampleRecord(uint64(i+1), "harl", float64(publishes-i)*1e-6, i+1)
		if _, err := r.Publish(rec); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if rec, ok := resolve(t, r, probe.Workload, probe.Target, "harl"); !ok || fmt.Sprintf("%.0e", rec.ExecSec) != "1e-06" {
		t.Fatalf("final best = %+v, %v", rec, ok)
	}
}

// TestTwoWriterHandlesInterleaveWholeRecords simulates the daemon + CLI
// sharing one registry directory: both handles publish successfully (the
// blocking per-publish lock serializes them) and a fresh open sees
// everything through the authoritative journal.
func TestTwoWriterHandlesInterleaveWholeRecords(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recA := sampleRecord(1, "harl", 2e-4, 1)
	recB := sampleRecord(2, "ansor", 3e-4, 1)
	if _, err := a.Publish(recA); err != nil {
		t.Fatalf("writer A: %v", err)
	}
	if _, err := b.Publish(recB); err != nil {
		t.Fatalf("writer B alongside A: %v", err)
	}
	// Cross-visibility without reopening: B folded A's record in during its
	// own publish (post-lock refresh), and A's next miss re-checks the
	// journal stat and reloads B's record.
	if got, ok := resolve(t, b, recA.Workload, recA.Target, "harl"); !ok || got != recA {
		t.Fatalf("writer B does not see writer A's record: %+v, %v", got, ok)
	}
	if got, ok := resolve(t, a, recB.Workload, recB.Target, "ansor"); !ok || got != recB {
		t.Fatalf("writer A does not see writer B's record: %+v, %v", got, ok)
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 2 {
		t.Fatalf("fresh open sees %d keys, want both writers' records", fresh.Len())
	}
	if got, ok := resolve(t, fresh, recA.Workload, recA.Target, "harl"); !ok || got != recA {
		t.Fatalf("writer A's record lost: %+v, %v", got, ok)
	}
	if got, ok := resolve(t, fresh, recB.Workload, recB.Target, "ansor"); !ok || got != recB {
		t.Fatalf("writer B's record lost: %+v, %v", got, ok)
	}
}
