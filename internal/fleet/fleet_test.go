package fleet

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// fastConfig keeps test pools snappy: short probes, tiny backoff, one-strike
// ejection.
func fastConfig() Config {
	return Config{
		Timeout:        5 * time.Second,
		Retries:        -1, // no retries unless a test overrides
		BackoffBase:    time.Millisecond,
		HealthInterval: 25 * time.Millisecond,
		EjectAfter:     1,
		Concurrency:    4,
	}
}

func newTask(t *testing.T, seed uint64) *search.Task {
	t.Helper()
	sg := workload.GEMM("g", 1, 64, 64, 64)
	plat := hardware.CPUXeon6226R()
	rng := xrand.New(seed)
	meas := hardware.NewMeasurer(hardware.NewSimulator(plat), rng.Split())
	return search.NewTask(sg, plat, meas, rng.Split())
}

func sampleBatch(task *search.Task, n int) ([]*schedule.Schedule, []uint64) {
	scheds := make([]*schedule.Schedule, n)
	seqs := make([]uint64, n)
	for i := range scheds {
		sk := task.Sketches[task.RNG.Intn(len(task.Sketches))]
		scheds[i] = task.RandomSchedule(sk)
		seqs[i] = task.Meas.ReserveSeq(scheds[i].Key())
	}
	return scheds, seqs
}

func startWorker(t *testing.T, targets ...string) (*Worker, *httptest.Server) {
	t.Helper()
	wk, err := NewWorker(targets, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(wk.Handler())
	t.Cleanup(srv.Close)
	return wk, srv
}

func newPool(t *testing.T, cfg Config, endpoints ...string) *Pool {
	t.Helper()
	p, err := NewPool(endpoints, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRemoteMatchesLocalBitExact is the seam's core contract: a batch
// evaluated by a worker over HTTP returns exactly the float64s the
// coordinator's in-process measurer computes for the same (schedule, seq)
// pairs.
func TestRemoteMatchesLocalBitExact(t *testing.T) {
	_, srv := startWorker(t)
	pool := newPool(t, fastConfig(), srv.URL)
	task := newTask(t, 7)

	ev := pool.EvaluatorFor(task)
	if ev == nil {
		t.Fatal("no evaluator for a cpu task against an all-target worker")
	}
	scheds, seqs := sampleBatch(task, 24)
	got, err := ev.EvalBatch(scheds, seqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scheds {
		want := task.Meas.NoisyExec(s, seqs[i])
		if got[i] != want {
			t.Fatalf("trial %d: remote %v != local %v", i, got[i], want)
		}
	}
	if st := pool.Stats(); st.BatchesDispatched != 1 || st.TrialsDispatched != 24 || st.Fallbacks != 0 {
		t.Fatalf("stats after one clean batch: %+v", st)
	}
}

// TestMeasureBatchViaRemote drives the seam the way the search layer does:
// Task.MeasureBatch with Remote installed must journal the same results as a
// twin task measuring in-process.
func TestMeasureBatchViaRemote(t *testing.T) {
	_, srv := startWorker(t)
	pool := newPool(t, fastConfig(), srv.URL)

	local, remote := newTask(t, 11), newTask(t, 11)
	remote.Remote = pool.EvaluatorFor(remote)
	if remote.Remote == nil {
		t.Fatal("no evaluator")
	}
	for round := 0; round < 3; round++ {
		var lb, rb []*schedule.Schedule
		for i := 0; i < 8; i++ {
			sk := local.Sketches[local.RNG.Intn(len(local.Sketches))]
			lb = append(lb, local.RandomSchedule(sk))
			sk = remote.Sketches[remote.RNG.Intn(len(remote.Sketches))]
			rb = append(rb, remote.RandomSchedule(sk))
		}
		local.MeasureBatch(lb)
		remote.MeasureBatch(rb)
	}
	if local.BestExec != remote.BestExec {
		t.Fatalf("best exec diverged: local %v, remote %v", local.BestExec, remote.BestExec)
	}
	ll, rl := local.BestLog, remote.BestLog
	if len(ll) != len(rl) {
		t.Fatalf("log lengths diverged: %d vs %d", len(ll), len(rl))
	}
	for i := range ll {
		if ll[i] != rl[i] {
			t.Fatalf("best log diverged at %d: %v vs %v", i, ll[i], rl[i])
		}
	}
	if st := pool.Stats(); st.BatchesDispatched == 0 {
		t.Fatal("no batches dispatched remotely")
	}
}

// TestFallbackWhenWorkerDies: a dead worker makes EvalBatch error (so
// MeasureBatch falls back in-process) and the pool counts the fallback and
// eventually ejects the worker.
func TestFallbackWhenWorkerDies(t *testing.T) {
	_, srv := startWorker(t)
	pool := newPool(t, fastConfig(), srv.URL)
	task := newTask(t, 3)
	ev := pool.EvaluatorFor(task)

	scheds, seqs := sampleBatch(task, 4)
	if _, err := ev.EvalBatch(scheds, seqs); err != nil {
		t.Fatalf("healthy dispatch failed: %v", err)
	}

	srv.Close() // kill the worker
	scheds2, seqs2 := sampleBatch(task, 4)
	if _, err := ev.EvalBatch(scheds2, seqs2); err == nil {
		t.Fatal("dispatch to a dead worker succeeded")
	}
	// MeasureBatch's fallback recomputes the same values locally — spot-check
	// the equivalence the journal identity rests on.
	for i, s := range scheds2 {
		v := task.Meas.NoisyExec(s, seqs2[i])
		if v <= 0 {
			t.Fatalf("local fallback value %v", v)
		}
	}
	st := pool.Stats()
	if st.Fallbacks == 0 {
		t.Fatalf("no fallback counted: %+v", st)
	}
	waitFor(t, "ejection", func() bool { return pool.Stats().Healthy == 0 })
	if pool.Stats().Ejections == 0 {
		t.Fatalf("no ejection counted: %+v", pool.Stats())
	}
}

// TestEjectReadmit: a worker whose health endpoint starts failing is ejected
// from rotation and readmitted once it recovers.
func TestEjectReadmit(t *testing.T) {
	wk, err := NewWorker(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var failing atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		wk.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	pool := newPool(t, fastConfig(), srv.URL)
	waitFor(t, "initial health", func() bool { return pool.Stats().Healthy == 1 })

	failing.Store(true)
	waitFor(t, "ejection", func() bool { return pool.Stats().Healthy == 0 })
	if pool.Stats().Ejections == 0 {
		t.Fatalf("ejection not counted: %+v", pool.Stats())
	}

	failing.Store(false)
	waitFor(t, "readmission", func() bool { return pool.Stats().Healthy == 1 })
	if pool.Stats().Readmissions == 0 {
		t.Fatalf("readmission not counted: %+v", pool.Stats())
	}
}

// TestHeterogeneousTargetRouting: a gpu-only worker yields no evaluator for a
// cpu task (a true interface nil), and the pool routes cpu batches only to
// workers that serve cpu.
func TestHeterogeneousTargetRouting(t *testing.T) {
	_, gpuSrv := startWorker(t, "gpu")
	pool := newPool(t, fastConfig(), gpuSrv.URL)
	waitFor(t, "gpu worker probe", func() bool { return pool.Stats().Healthy == 1 })

	task := newTask(t, 5) // cpu task
	if ev := pool.EvaluatorFor(task); ev != nil {
		t.Fatalf("cpu task got an evaluator from a gpu-only fleet: %#v", ev)
	}

	// Adding a cpu worker makes the same task eligible, and its batches land
	// on the cpu worker only.
	cpuWk, cpuSrv := startWorker(t, "cpu")
	mixed := newPool(t, fastConfig(), gpuSrv.URL, cpuSrv.URL)
	waitFor(t, "both probes", func() bool { return mixed.Stats().Healthy == 2 })
	ev := mixed.EvaluatorFor(task)
	if ev == nil {
		t.Fatal("cpu task got no evaluator from a mixed fleet")
	}
	scheds, seqs := sampleBatch(task, 6)
	if _, err := ev.EvalBatch(scheds, seqs); err != nil {
		t.Fatal(err)
	}
	if cpuWk.Batches() != 1 {
		t.Fatalf("cpu worker served %d batches, want 1", cpuWk.Batches())
	}
}

// TestRoundRobinSpreadsBatches: sequential batches alternate across healthy
// workers instead of pinning to one.
func TestRoundRobinSpreadsBatches(t *testing.T) {
	wk1, srv1 := startWorker(t)
	wk2, srv2 := startWorker(t)
	pool := newPool(t, fastConfig(), srv1.URL, srv2.URL)
	waitFor(t, "both probes", func() bool { return pool.Stats().Healthy == 2 })

	task := newTask(t, 9)
	ev := pool.EvaluatorFor(task)
	for i := 0; i < 6; i++ {
		scheds, seqs := sampleBatch(task, 2)
		if _, err := ev.EvalBatch(scheds, seqs); err != nil {
			t.Fatal(err)
		}
	}
	if wk1.Batches() == 0 || wk2.Batches() == 0 {
		t.Fatalf("round-robin pinned: worker1=%d worker2=%d", wk1.Batches(), wk2.Batches())
	}
}

// TestRetryMovesToNextWorker: with one broken and one healthy worker, a batch
// that lands on the broken one is retried and completes on the other.
func TestRetryMovesToNextWorker(t *testing.T) {
	var served atomic.Int64
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/healthz") {
			// Healthy on probes, broken on dispatch: the worst failure mode,
			// because it stays in rotation.
			json.NewEncoder(w).Encode(HealthResponse{Status: "ok"})
			return
		}
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer broken.Close()
	_, good := startWorker(t)

	cfg := fastConfig()
	cfg.Retries = 3
	pool := newPool(t, cfg, broken.URL, good.URL)
	waitFor(t, "both probes", func() bool { return pool.Stats().Healthy == 2 })

	task := newTask(t, 13)
	ev := pool.EvaluatorFor(task)
	for i := 0; i < 4; i++ {
		scheds, seqs := sampleBatch(task, 2)
		res, err := ev.EvalBatch(scheds, seqs)
		if err != nil {
			t.Fatalf("batch %d failed despite a healthy worker in rotation: %v", i, err)
		}
		if len(res) != 2 {
			t.Fatalf("batch %d: %d results", i, len(res))
		}
		served.Add(1)
	}
	st := pool.Stats()
	if st.Retries == 0 {
		t.Fatalf("no retries counted despite a broken worker: %+v", st)
	}
	if st.BatchesDispatched != served.Load() {
		t.Fatalf("dispatched %d, served %d", st.BatchesDispatched, served.Load())
	}
}

// TestWorkerErrorContract: every worker error path answers the v1 envelope
// with the right machine code.
func TestWorkerErrorContract(t *testing.T) {
	_, cpuOnly := startWorker(t, "cpu")
	task := newTask(t, 17)
	goodReq := func() MeasureRequest {
		scheds, seqs := sampleBatch(task, 1)
		return MeasureRequest{
			V:         protocolVersion,
			Workload:  task.Graph.Fingerprint(),
			Target:    "cpu",
			NoiseSeed: task.Meas.NoiseSeed(),
			Subgraph:  specOf(task.Graph),
			Trials:    []TrialSpec{{Steps: scheds[0].MarshalSteps(), Seq: seqs[0]}},
		}
	}
	post := func(body string) (*http.Response, map[string]any) {
		resp, err := http.Post(cpuOnly.URL+"/v1/measure", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return resp, out
	}
	mutate := func(f func(*MeasureRequest)) string {
		r := goodReq()
		f(&r)
		b, _ := json.Marshal(r)
		return string(b)
	}
	cases := []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"bad json", "not json", http.StatusBadRequest, "invalid_request"},
		{"bad version", mutate(func(r *MeasureRequest) { r.V = 99 }), http.StatusBadRequest, "invalid_request"},
		{"unknown target", mutate(func(r *MeasureRequest) { r.Target = "tpu" }), http.StatusBadRequest, "invalid_request"},
		{"unsupported target", mutate(func(r *MeasureRequest) { r.Target = "gpu" }), http.StatusBadRequest, "unsupported_target"},
		{"fingerprint mismatch", mutate(func(r *MeasureRequest) { r.Workload = "bogus@0000000000000000" }), http.StatusBadRequest, "invalid_request"},
		{"no trials", mutate(func(r *MeasureRequest) { r.Trials = nil }), http.StatusBadRequest, "invalid_request"},
		{"bad steps", mutate(func(r *MeasureRequest) { r.Trials[0].Steps = "sk=999" }), http.StatusBadRequest, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, out := post(tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%v)", resp.StatusCode, tc.status, out)
			}
			env, _ := out["error"].(map[string]any)
			if code, _ := env["code"].(string); code != tc.code {
				t.Fatalf("code %q, want %q (%v)", code, tc.code, out)
			}
			if msg, _ := env["message"].(string); msg == "" {
				t.Fatal("empty error message")
			}
		})
	}
	// The control: the unmutated request succeeds.
	resp, out := post(mutate(func(r *MeasureRequest) {}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control request failed: %d (%v)", resp.StatusCode, out)
	}
}

// TestEvaluatorForUnprobedPoolIsOptimistic: a pool whose workers have never
// answered a probe still hands out evaluators (the workers may come up), and
// dispatch just falls back meanwhile.
func TestEvaluatorForUnprobedPoolIsOptimistic(t *testing.T) {
	cfg := fastConfig()
	pool := newPool(t, cfg, "127.0.0.1:1") // nothing listens there
	task := newTask(t, 1)
	ev := pool.EvaluatorFor(task)
	if ev == nil {
		t.Fatal("unprobed pool refused an evaluator")
	}
	scheds, seqs := sampleBatch(task, 2)
	if _, err := ev.EvalBatch(scheds, seqs); err == nil {
		t.Fatal("dispatch with no live workers succeeded")
	}
	if pool.Stats().Fallbacks == 0 {
		t.Fatal("fallback not counted")
	}
}
