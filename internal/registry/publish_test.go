package registry

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"harl/internal/tunelog"
)

// The publish contract, pinned without a clock: a gate on the journal-open
// seam holds each append until the test releases it — events, never time.

// gate signals each journal open with the journal's path on entered and
// blocks until the test sends the call's verdict on release: nil opens the
// journal, an error fails the append.
type gate struct {
	entered chan string
	release chan error
}

func (g *gate) open(path string) (*tunelog.Journal, error) {
	g.entered <- path
	if err := <-g.release; err != nil {
		return nil, err
	}
	return tunelog.OpenJournalUnlocked(path)
}

// pass waits for the next journal open and lets it through.
func (g *gate) pass() {
	<-g.entered
	g.release <- nil
}

// openGated opens a registry whose appends pass through a gate. The cleanup
// opens the gate for good before closing, so a failed assertion reports
// instead of hanging on a held append.
func openGated(t *testing.T, dir string, layout Layout) (*Registry, *gate) {
	t.Helper()
	r := openLayout(t, dir, layout)
	// entered is buffered past any test's append count: the gate is the
	// unbuffered release.
	g := &gate{entered: make(chan string, 8), release: make(chan error)}
	setJournalHook(r, g.open)
	t.Cleanup(func() {
		close(g.release)
		r.Close()
	})
	return r, g
}

// publishers starts n concurrent Publish calls over `keys` workloads; wait
// collects their errors, and improved counts the publishes that changed a
// best.
func publishers(r *Registry, tag string, n, keys int) (wait func() []error, improved *atomic.Int64) {
	errs := make([]error, n)
	improved = new(atomic.Int64)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var ok bool
			ok, errs[i] = r.Publish(synthRecord(fmt.Sprintf("w@%s-%d", tag, i%keys), "harl", float64(i+1)*1e-5, i+1))
			if ok {
				improved.Add(1)
			}
		}(i)
	}
	return func() []error { wg.Wait(); return errs }, improved
}

// holdAppend publishes one record and returns with its append held at the
// gate, after checking that the append opened exactly the record's journal.
func holdAppend(t *testing.T, r *Registry, g *gate, tag string) (wait func() []error) {
	t.Helper()
	wait, _ = publishers(r, tag, 1, 1)
	if path, want := <-g.entered, r.journalFor("w@"+tag+"-0").path(); path != want {
		t.Fatalf("a publish opened %s, want its record's journal %s", path, want)
	}
	return wait
}

func mustAllSucceed(t *testing.T, errs []error) {
	t.Helper()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("publisher %d: %v", i, err)
		}
	}
}

// TestBatchErrorReachesEveryCaller: a failed append is its caller's error,
// and the registry keeps serving afterwards.
func TestBatchErrorReachesEveryCaller(t *testing.T) {
	dir := t.TempDir()
	r, g := openGated(t, dir, LayoutSharded)
	failed := holdAppend(t, r, g, "fail")
	boom := errors.New("injected append failure")
	g.release <- boom
	if err := failed()[0]; !errors.Is(err, boom) {
		t.Fatalf("the failed append's publisher got %v", err)
	}
	next, _ := publishers(r, "next", 1, 1)
	g.pass()
	mustAllSucceed(t, next())
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want the one record whose append succeeded", r.Len())
	}
}

// TestCloseFlushesPendingPublishes: Close blocks while a publish's append is
// in flight, and that record is durable on reopen.
func TestCloseFlushesPendingPublishes(t *testing.T) {
	dir := t.TempDir()
	r, g := openGated(t, dir, LayoutAuto)
	first := holdAppend(t, r, g, "flush")
	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	// A pending writer makes TryRLock fail: from then on Close is waiting on
	// the append the gate holds.
	for {
		select {
		case <-closed:
			t.Fatal("Close returned with a publish in flight")
		default:
		}
		if !r.mu.TryRLock() {
			break
		}
		r.mu.RUnlock()
		runtime.Gosched()
	}
	g.release <- nil
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	mustAllSucceed(t, first())
	fresh := openLayout(t, dir, LayoutAuto)
	defer fresh.Close()
	if fresh.Len() != 1 {
		t.Fatalf("%d of 1 pre-Close publishes durable", fresh.Len())
	}
}

func TestPublishAfterCloseFails(t *testing.T) {
	r := openLayout(t, t.TempDir(), LayoutAuto)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish(synthRecord("w@closed", "harl", 1e-4, 1)); err == nil {
		t.Fatal("publish after Close must fail, not hang or drop silently")
	}
}

// TestConcurrentPublishersDurable: N publishers at once over shared keys
// (and, sharded, shared shards) all succeed, each improvement lands as one
// journal record, and a reopen rebuilds each key's best.
func TestConcurrentPublishersDurable(t *testing.T) {
	for _, layout := range conformanceLayouts {
		t.Run(string(layout), func(t *testing.T) {
			dir := t.TempDir()
			r := openLayout(t, dir, layout)
			const n, keys = 32, 4
			wait, improved := publishers(r, "conc", n, keys)
			mustAllSucceed(t, wait())
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			fresh := openLayout(t, dir, layout)
			defer fresh.Close()
			if st, want := fresh.Stats(), int(improved.Load()); st.Records != want || fresh.Len() != keys {
				t.Fatalf("reopened with %d records over %d keys, want the %d improvements over %d", st.Records, fresh.Len(), want, keys)
			}
			for k := 0; k < keys; k++ {
				// Publisher k is the first, and fastest, of its key's.
				want := synthRecord(fmt.Sprintf("w@conc-%d", k), "harl", float64(k+1)*1e-5, k+1)
				if got, ok := resolve(t, fresh, want.Workload, want.Target, "harl"); !ok || got != want {
					t.Fatalf("key %d best after reopen = %+v, %v; want %+v", k, got, ok, want)
				}
			}
		})
	}
}

// syncSpy is a journal file that logs its Sync and Close calls.
type syncSpy struct {
	*os.File
	log *[]string
}

func (s syncSpy) Sync() error  { *s.log = append(*s.log, "sync"); return s.File.Sync() }
func (s syncSpy) Close() error { *s.log = append(*s.log, "close"); return s.File.Close() }

// TestPublishFsyncsAcceptedLinesOnly: a publish opens a journal only for
// records that change a best, and fsyncs it once per batch before closing
// it; a publish that changes nothing writes nothing.
func TestPublishFsyncsAcceptedLinesOnly(t *testing.T) {
	for _, layout := range conformanceLayouts {
		t.Run(string(layout), func(t *testing.T) {
			r := openLayout(t, t.TempDir(), layout)
			defer r.Close()
			var log []string
			setJournalHook(r, func(path string) (*tunelog.Journal, error) {
				f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return nil, err
				}
				return tunelog.NewJournalWriteCloser(syncSpy{f, &log}), nil
			})
			batch := []tunelog.Record{
				synthRecord("w@sync", "harl", 2e-4, 1),
				synthRecord("w@sync", "harl", 3e-4, 2),
				synthRecord("w@sync", "harl", 1e-4, 3),
			}
			if n, err := r.PublishBatch(batch); err != nil || n != 2 {
				t.Fatalf("PublishBatch = %d, %v; want the 2 improvements", n, err)
			}
			if got := strings.Join(log, ","); got != "sync,close" {
				t.Fatalf("journal calls %q, want one sync before the close", got)
			}
			if n, err := r.PublishBatch(batch); err != nil || n != 0 {
				t.Fatalf("republish = %d, %v; want 0", n, err)
			}
			if len(log) != 2 {
				t.Fatalf("a publish that changed no best touched the journal: %q", log)
			}
			if lines := countLines(t, r.journalFor("w@sync").path()); lines != 2 {
				t.Fatalf("journal holds %d lines, want the 2 improvements", lines)
			}
		})
	}
}
