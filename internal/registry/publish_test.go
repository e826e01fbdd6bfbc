package registry

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"harl/internal/tunelog"
)

// The publish contract, pinned without a clock: a gate in front of a real
// backend holds each AppendBatch until the test releases it — events, never
// time.

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

// openGated opens a registry whose appends pass through a gate. The cleanup
// opens the gate for good before closing, so a failed assertion reports
// instead of hanging on a held append.
func openGated(t *testing.T, dir string, layout Layout) (*Registry, *gateBackend) {
	t.Helper()
	r := openLayout(t, dir, layout)
	// entered is buffered past any test's AppendBatch count: the gate is the
	// unbuffered release.
	g := &gateBackend{Backend: r.b, entered: make(chan int, 8), release: make(chan error)}
	r.b = g
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

// holdAppend publishes one record and returns with its append held at the
// gate.
func holdAppend(t *testing.T, r *Registry, g *gateBackend, tag string) (wait func() []error) {
	t.Helper()
	wait = publishers(r, tag, 1, 1)
	if n := <-g.entered; n != 1 {
		t.Fatalf("a publish appended a batch of %d", n)
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
	next := publishers(r, "next", 1, 1)
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

// TestConcurrentPublishersDurable: N publishers appending at once over shared
// keys (and, sharded, shared shards) all land, and a reopen rebuilds each
// key's best.
func TestConcurrentPublishersDurable(t *testing.T) {
	for _, layout := range conformanceLayouts {
		t.Run(string(layout), func(t *testing.T) {
			dir := t.TempDir()
			r := openLayout(t, dir, layout)
			const n, keys = 32, 4
			mustAllSucceed(t, publishers(r, "conc", n, keys)())
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			fresh := openLayout(t, dir, layout)
			defer fresh.Close()
			if st := fresh.Stats(); st.Records != n || st.Keys != keys {
				t.Fatalf("reopened with %d records over %d keys, want %d over %d", st.Records, st.Keys, n, keys)
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
