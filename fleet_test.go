package harl

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harl/internal/fleet"
)

// tuneToJournal runs one operator tune with the given extra options and
// returns the journal bytes.
func tuneToJournal(t *testing.T, path string, mutate func(*Options)) Result {
	t.Helper()
	o := Options{Scheduler: "harl", Trials: 48, Seed: 3, Workers: 2, RecordLog: path}
	if mutate != nil {
		mutate(&o)
	}
	res, err := TuneOperator(GEMM(64, 64, 64, 1), CPU(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// dialFleet opens a fleet over one worker URL, closed with the test.
func dialFleet(t *testing.T, url string) *Fleet {
	t.Helper()
	pool, err := DialFleet([]string{url})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return pool
}

func readJournal(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("journal %s is empty", path)
	}
	return data
}

// TestFleetJournalByteIdentity is the acceptance pin for the measurement
// fleet: the same tune measured through a harl-worker produces a tuning
// journal byte-identical to the in-process run, and identical results.
func TestFleetJournalByteIdentity(t *testing.T) {
	dir := t.TempDir()
	localLog := filepath.Join(dir, "local.jsonl")
	fleetLog := filepath.Join(dir, "fleet.jsonl")

	localRes := tuneToJournal(t, localLog, nil)

	wk, err := fleet.NewWorker(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()
	pool := dialFleet(t, srv.URL)
	fleetRes := tuneToJournal(t, fleetLog, func(o *Options) { o.FleetPool = pool })

	if wk.Batches() == 0 || wk.Trials() == 0 {
		t.Fatalf("fleet run measured nothing remotely (batches=%d trials=%d)", wk.Batches(), wk.Trials())
	}
	if localRes.ExecSeconds != fleetRes.ExecSeconds || localRes.BestSchedule != fleetRes.BestSchedule {
		t.Fatalf("results diverged: local %v %q, fleet %v %q",
			localRes.ExecSeconds, localRes.BestSchedule, fleetRes.ExecSeconds, fleetRes.BestSchedule)
	}
	if !bytes.Equal(readJournal(t, localLog), readJournal(t, fleetLog)) {
		t.Fatal("fleet journal differs from in-process journal")
	}
}

// TestFleetWorkerKilledMidRun: a worker that dies partway through the run
// (here: starts refusing every request, exactly what a kill -9 looks like to
// the coordinator) must not change the journal by a byte — the pool ejects
// it and the reserved-seq fallback recomputes the same values in-process.
func TestFleetWorkerKilledMidRun(t *testing.T) {
	dir := t.TempDir()
	localLog := filepath.Join(dir, "local.jsonl")
	fleetLog := filepath.Join(dir, "fleet.jsonl")

	localRes := tuneToJournal(t, localLog, nil)

	wk, err := fleet.NewWorker(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	var measured atomic.Int64
	var killed atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() {
			// A dead process answers nothing; dropping the connection is the
			// closest httptest equivalent.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			http.Error(w, "dead", http.StatusInternalServerError)
			return
		}
		if r.URL.Path == "/v1/measure" && measured.Add(1) == 2 {
			killed.Store(true)
		}
		wk.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	p, err := fleet.NewPool([]string{srv.URL}, fleet.Config{Retries: -1, HealthInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	pool := &Fleet{pool: p}
	defer pool.Close()

	fleetRes := tuneToJournal(t, fleetLog, func(o *Options) { o.FleetPool = pool })

	st := pool.Stats()
	if st.BatchesDispatched == 0 {
		t.Fatalf("no batches reached the worker before the kill: %+v", st)
	}
	if st.Fallbacks == 0 {
		t.Fatalf("no in-process fallback after the kill: %+v", st)
	}
	if localRes.ExecSeconds != fleetRes.ExecSeconds || localRes.BestSchedule != fleetRes.BestSchedule {
		t.Fatalf("results diverged after mid-run kill: local %v %q, fleet %v %q",
			localRes.ExecSeconds, localRes.BestSchedule, fleetRes.ExecSeconds, fleetRes.BestSchedule)
	}
	if !bytes.Equal(readJournal(t, localLog), readJournal(t, fleetLog)) {
		t.Fatal("journal changed after mid-run worker death")
	}
	// Ejection takes EjectAfter consecutive observed failures, and the run
	// can finish within one probe period of the kill — give the health loop
	// time to notice the dead worker rather than racing it.
	deadline := time.Now().Add(5 * time.Second)
	for pool.Stats().Ejections == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st2 := pool.Stats(); st2.Ejections == 0 {
		t.Fatalf("dead worker never ejected: %+v", st2)
	}
}

// TestFleetNetworkTune: the fleet seam reaches every task of a network run
// (the session's per-task start-up attaches it), on both the serial and the
// parallel scheduler.
func TestFleetNetworkTune(t *testing.T) {
	wk, err := fleet.NewWorker(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()
	pool := dialFleet(t, srv.URL)

	for _, workers := range []int{0, 2} {
		dir := t.TempDir()
		localLog := filepath.Join(dir, "local.jsonl")
		fleetLog := filepath.Join(dir, "fleet.jsonl")
		o := Options{Scheduler: "harl", Trials: 330, Seed: 3, Workers: workers, RecordLog: localLog}
		if _, err := TuneNetwork("bert", 1, CPU(), o); err != nil {
			t.Fatal(err)
		}
		before := wk.Batches()
		o.RecordLog = fleetLog
		o.FleetPool = pool
		if _, err := TuneNetwork("bert", 1, CPU(), o); err != nil {
			t.Fatal(err)
		}
		if wk.Batches() == before {
			t.Fatalf("workers=%d: network run dispatched nothing to the fleet", workers)
		}
		if !bytes.Equal(readJournal(t, localLog), readJournal(t, fleetLog)) {
			t.Fatalf("workers=%d: fleet network journal differs from in-process", workers)
		}
	}
}

// TestFailedHooksReleaseJournal: a run that opens its record log and then
// fails — here on a pretrain log that matches none of its workloads, checked
// after the log is open — must release the log's exclusive lock; the next
// run on the same RecordLog would otherwise fail fast on it. A blank fleet
// endpoint fails at DialFleet, before any run.
func TestFailedHooksReleaseJournal(t *testing.T) {
	if _, err := DialFleet([]string{" "}); err == nil {
		t.Fatal("a blank fleet endpoint must fail the dial")
	}
	path := filepath.Join(t.TempDir(), "tune.jsonl")
	w := GEMM(64, 64, 64, 1)
	foreign := filepath.Join("examples", "pretrain", "gemm-cpu.jsonl")
	_, err := TuneOperator(w, CPU(), Options{Scheduler: "random", Trials: 16, RecordLog: path, PretrainFrom: foreign})
	if err == nil || !strings.Contains(err.Error(), "to pretrain from") {
		t.Fatalf("a pretrain log matching no workload must fail the run, got %v", err)
	}
	if _, err := TuneOperator(w, CPU(), Options{Scheduler: "random", Trials: 16, RecordLog: path}); err != nil {
		t.Fatalf("record log still held after the failed run: %v", err)
	}
}
