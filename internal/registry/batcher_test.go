package registry

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"harl/internal/tunelog"
)

// The batcher contract, pinned without a clock: a gate in front of a real
// backend holds each AppendBatch until the test releases it, and the test
// waits on the batcher's request channel filling — events, never time.

// gateBackend signals each AppendBatch's record count on entered and blocks
// until the test sends the call's verdict on release: nil forwards the batch
// to the wrapped backend, an error fails it.
type gateBackend struct {
	Backend
	entered chan int
	release chan error
}

func (g *gateBackend) AppendBatch(recs []tunelog.Record) ([]bool, error) {
	g.entered <- len(recs)
	if err := <-g.release; err != nil {
		return nil, err
	}
	return g.Backend.AppendBatch(recs)
}

// pass waits for the next AppendBatch, lets it through and returns its size.
func (g *gateBackend) pass() int {
	n := <-g.entered
	g.release <- nil
	return n
}

// openGated opens a registry whose batcher flushes through a gate. The
// cleanup opens the gate for good before closing, so a failed assertion
// reports instead of hanging on a held flush.
func openGated(t *testing.T, dir string, layout Layout) (*Registry, *gateBackend) {
	t.Helper()
	r := openLayout(t, dir, layout)
	// entered is buffered past any test's AppendBatch count: the gate is the
	// unbuffered release.
	g := &gateBackend{Backend: r.b, entered: make(chan int, 8), release: make(chan error)}
	r.b, r.bat.b = g, g
	t.Cleanup(func() {
		close(g.release)
		r.Close()
	})
	return r, g
}

// publishers starts n concurrent Publish calls over `keys` workloads; wait
// collects their errors.
func publishers(r *Registry, tag string, n, keys int) (wait func() []error) {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Publish(synthRecord(fmt.Sprintf("w@%s-%d", tag, i%keys), "harl", float64(i+1)*1e-5, i+1))
		}(i)
	}
	return func() []error { wg.Wait(); return errs }
}

// backlog is publishers behind a flush the gate is holding: it returns once
// all n sit in the batcher's queue.
func backlog(r *Registry, tag string, n, keys int) (wait func() []error) {
	wait = publishers(r, tag, n, keys)
	for len(r.bat.ch) < n {
		runtime.Gosched()
	}
	return wait
}

// holdFlush publishes one record and returns with its flush — a lone
// publisher's batch of one — held at the gate.
func holdFlush(t *testing.T, r *Registry, g *gateBackend) (wait func() []error) {
	t.Helper()
	wait = publishers(r, "first", 1, 1)
	if n := <-g.entered; n != 1 {
		t.Fatalf("lone publisher flushed as a batch of %d", n)
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

// TestBatcherAmortizesLockAcquisitions: N publishers queued behind an
// in-flight flush are the next batch — exactly one AppendBatch of N records,
// and far fewer file locks than one apiece on either layout.
func TestBatcherAmortizesLockAcquisitions(t *testing.T) {
	for _, layout := range conformanceLayouts {
		t.Run(string(layout), func(t *testing.T) {
			r, g := openGated(t, t.TempDir(), layout)
			first := holdFlush(t, r, g)
			// Four keys across 32 publishers: the sharded backend locks once per
			// TOUCHED SHARD per batch, so the amortization shows on keys that
			// share shards, which concurrent sessions re-measuring the same
			// workloads produce constantly.
			const queued, keys = 32, 4
			rest := backlog(r, "amort", queued, keys)
			g.release <- nil
			if n := g.pass(); n != queued {
				t.Fatalf("the %d publishers queued behind a flush landed in a batch of %d", queued, n)
			}
			mustAllSucceed(t, first())
			mustAllSucceed(t, rest())
			st := r.Stats()
			if st.BatchesFlushed != 2 || st.BatchedRecords != queued+1 {
				t.Fatalf("%d batches carrying %d records, want 2 carrying %d", st.BatchesFlushed, st.BatchedRecords, queued+1)
			}
			if st.LockAcquisitions > 1+keys {
				t.Fatalf("%d lock acquisitions for %d publishes over %d keys — batching amortized nothing", st.LockAcquisitions, queued+1, keys)
			}
			if r.Len() != keys+1 {
				t.Fatalf("Len = %d, want %d distinct keys", r.Len(), keys+1)
			}
		})
	}
}

func TestBatcherSplitsBacklogAtCap(t *testing.T) {
	r, g := openGated(t, t.TempDir(), LayoutSharded)
	first := holdFlush(t, r, g)
	const extra = 16
	rest := backlog(r, "cap", maxBatch+extra, 8)
	g.release <- nil
	if n := g.pass(); n != maxBatch {
		t.Fatalf("backlog of %d flushed %d records at once, cap %d", maxBatch+extra, n, maxBatch)
	}
	if n := g.pass(); n != extra {
		t.Fatalf("remainder batch carried %d records, want %d", n, extra)
	}
	mustAllSucceed(t, first())
	mustAllSucceed(t, rest())
}

// TestBatchErrorReachesEveryCaller: a batch-level failure is every caller's
// failure, and the batcher keeps serving afterwards.
func TestBatchErrorReachesEveryCaller(t *testing.T) {
	r, g := openGated(t, t.TempDir(), LayoutSharded)
	first := holdFlush(t, r, g)
	const queued = 5
	failed := backlog(r, "fail", queued, queued)
	g.release <- nil
	boom := errors.New("injected batch failure")
	if n := <-g.entered; n != queued {
		t.Fatalf("batch of %d, want %d", n, queued)
	}
	g.release <- boom
	mustAllSucceed(t, first())
	for i, err := range failed() {
		if !errors.Is(err, boom) {
			t.Fatalf("publisher %d of the failed batch got %v", i, err)
		}
	}
	next := publishers(r, "next", 1, 1)
	g.pass()
	mustAllSucceed(t, next())
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want the two records of the batches that succeeded", r.Len())
	}
}

// TestCloseFlushesPendingPublishes: Close returns only after every publish
// queued before it is durable.
func TestCloseFlushesPendingPublishes(t *testing.T) {
	dir := t.TempDir()
	r, g := openGated(t, dir, LayoutAuto)
	first := holdFlush(t, r, g)
	const queued = 8
	rest := backlog(r, "flush", queued, queued)
	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	// Wait until Close has stopped intake; the flusher is still held at the
	// gate with the queue behind it, so Close must be blocked.
	for stopped := false; !stopped; runtime.Gosched() {
		r.bat.mu.RLock()
		stopped = r.bat.closed
		r.bat.mu.RUnlock()
	}
	select {
	case <-r.bat.done:
		t.Fatal("flusher exited with publishes still queued")
	default:
	}
	g.release <- nil
	if n := g.pass(); n != queued {
		t.Fatalf("Close drained a batch of %d, want %d", n, queued)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	mustAllSucceed(t, first())
	mustAllSucceed(t, rest())
	fresh := openLayout(t, dir, LayoutAuto)
	defer fresh.Close()
	if fresh.Len() != queued+1 {
		t.Fatalf("%d of %d pre-Close publishes durable", fresh.Len(), queued+1)
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
