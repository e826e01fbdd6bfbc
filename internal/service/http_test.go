package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"harl"
)

// serveTestEnv boots an httptest server over a queue with the controllable
// fake tuner and a registry seeded from the committed GEMM journal.
func serveTestEnv(t *testing.T) (*httptest.Server, *Queue, *fakeTuner, *harl.Registry) {
	t.Helper()
	reg, err := harl.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.ImportJournal("../../examples/pretrain/gemm-cpu.jsonl"); err != nil {
		t.Fatal(err)
	}
	ft := newFakeTuner()
	q := NewQueue(ft, 2)
	srv := httptest.NewServer(NewServer(q, reg))
	t.Cleanup(func() {
		srv.Close()
		q.Shutdown()
		reg.Close()
	})
	return srv, q, ft, reg
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestTuneEndpointCacheHit: a request covered by the committed journal is
// answered 200 from the registry — no job, no search — and the trials field
// reports how much search produced the cached schedule (the stored record's
// trial index), not zero. Regression: hitResponse used to drop Record.Trial,
// so every hit claimed the schedule came from 0 trials.
func TestTuneEndpointCacheHit(t *testing.T) {
	srv, q, ft, reg := serveTestEnv(t)
	hit, ok, err := reg.Lookup(harl.GEMM(256, 256, 256, 1), harl.CPU(), "harl")
	if err != nil || !ok {
		t.Fatalf("registry lookup: ok=%v err=%v", ok, err)
	}
	if hit.Record.Trial == 0 {
		t.Fatal("committed journal's best record has trial 0; the regression check needs a non-zero value")
	}
	resp, out := postJSON(t, srv.URL+"/v1/tune",
		`{"op":"gemm","shape":"256,256,256","target":"cpu","scheduler":"harl"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (cache hit)", resp.StatusCode)
	}
	if out["cache_hit"] != true {
		t.Fatalf("response %v lacks cache_hit", out)
	}
	if got := out["trials"]; got != float64(hit.Record.Trial) {
		t.Fatalf("cache hit reported trials=%v, want the record's %d", got, hit.Record.Trial)
	}
	if ft.Runs() != 0 {
		t.Fatalf("tuner ran %d searches on a cache hit", ft.Runs())
	}
	if m := q.Metrics(); m.RegistryHits != 1 || m.Submitted != 0 {
		t.Fatalf("metrics after hit = %+v", m)
	}
}

// TestTuneEndpointCoalescesConcurrentPosts: N parallel identical POSTs for
// an uncached workload must yield exactly one job.
func TestTuneEndpointCoalescesConcurrentPosts(t *testing.T) {
	srv, q, ft, _ := serveTestEnv(t)
	const n = 8
	body := `{"op":"gemm","shape":"96,96,96","target":"cpu","trials":64}`
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, out := postJSON(t, srv.URL+"/v1/tune", body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("status %d, want 202", resp.StatusCode)
				return
			}
			job := out["job"].(map[string]any)
			ids[i] = job["id"].(string)
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("concurrent identical POSTs produced jobs %s and %s", ids[0], id)
		}
	}
	if got := q.Metrics().Submitted; got != 1 {
		t.Fatalf("submitted %d jobs for %d identical requests", got, n)
	}
	<-ft.started
	close(ft.release)
	waitState(t, q, ids[0], StateDone)
	if ft.Runs() != 1 {
		t.Fatalf("tuner ran %d searches, want 1", ft.Runs())
	}
	// The job is queryable after completion.
	resp, out := getJSON(t, srv.URL+"/v1/jobs/"+ids[0])
	if resp.StatusCode != http.StatusOK || out["state"] != string(StateDone) {
		t.Fatalf("job lookup = %d %v", resp.StatusCode, out)
	}
}

func TestScheduleEndpointHitAndMiss(t *testing.T) {
	srv, _, _, _ := serveTestEnv(t)
	resp, out := getJSON(t, srv.URL+"/v1/schedule?op=gemm&shape=256,256,256&target=cpu&scheduler=harl")
	if resp.StatusCode != http.StatusOK || out["cache_hit"] != true {
		t.Fatalf("hit lookup = %d %v", resp.StatusCode, out)
	}
	if out["best_schedule"] == "" || out["exec_seconds"] == nil {
		t.Fatalf("hit payload incomplete: %v", out)
	}
	if out["trials"] == float64(0) {
		t.Fatalf("schedule hit reports trials=0; want the stored record's trial count (%v)", out)
	}
	resp, _ = getJSON(t, srv.URL+"/v1/schedule?op=gemm&shape=512,512,512&target=cpu")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss status = %d, want 404", resp.StatusCode)
	}
	resp, _ = getJSON(t, srv.URL+"/v1/schedule?op=gemm&shape=bogus")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shape status = %d, want 400", resp.StatusCode)
	}
}

func TestCancelEndpoint(t *testing.T) {
	srv, q, ft, _ := serveTestEnv(t)
	_, out := postJSON(t, srv.URL+"/v1/tune", `{"op":"gemm","shape":"80,80,80","target":"cpu"}`)
	id := out["job"].(map[string]any)["id"].(string)
	<-ft.started
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	j := waitState(t, q, id, StateCancelled)
	if j.Outcome == nil || !j.Outcome.Cancelled {
		t.Fatalf("cancelled job outcome = %+v", j.Outcome)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	srv, _, _, reg := serveTestEnv(t)
	resp, out := getJSON(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, out)
	}
	if int(out["registry_keys"].(float64)) != reg.Len() {
		t.Fatalf("healthz registry_keys = %v, want %d", out["registry_keys"], reg.Len())
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := make([]byte, 1<<14)
	n, _ := mresp.Body.Read(buf)
	text := string(buf[:n])
	for _, metric := range []string{"harl_queue_depth", "harl_registry_hit_rate", "harl_trials_measured_total", "harl_jobs_coalesced_total"} {
		if !strings.Contains(text, metric) {
			t.Fatalf("metrics output lacks %s:\n%s", metric, text)
		}
	}
}

// TestBadRequests covers the validation surface: unknown fields of every
// kind answer 400 with the valid-name list, not 500.
func TestBadRequests(t *testing.T) {
	srv, _, _, _ := serveTestEnv(t)
	for _, body := range []string{
		`{"op":"gemm","shape":"64,64,64","target":"tpu"}`,
		`{"op":"gemm","shape":"64,64,64","scheduler":"sgd"}`,
		`{"op":"wavelet","shape":"64"}`,
		`{}`,
		`not json`,
		`{"op":"gemm","shape":"64,64,64","plateau_min_improvement":-1}`,
		`{"op":"gemm","shape":"64,64,64","plateau_min_improvement":0.05}`,
	} {
		resp, out := postJSON(t, srv.URL+"/v1/tune", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400 (%v)", body, resp.StatusCode, out)
		}
		env, _ := out["error"].(map[string]any)
		if code, _ := env["code"].(string); code != "invalid_request" {
			t.Fatalf("body %s: error code %q, want invalid_request", body, code)
		}
		if msg, _ := env["message"].(string); msg == "" {
			t.Fatalf("body %s: no error detail", body)
		}
	}
	resp, _ := getJSON(t, srv.URL+"/v1/jobs/j999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d", resp.StatusCode)
	}
}

// TestHarlTunerKeyUnifiesSpelling: the coalescing key is structural — two
// spellings of one workload coalesce, different workloads never do.
func TestHarlTunerKeyUnifiesSpelling(t *testing.T) {
	ht := &HarlTuner{}
	k1, err := ht.Key(Request{Op: "gemm", Shape: "64,64,64", Target: "cpu"}.normalize())
	if err != nil {
		t.Fatal(err)
	}
	k2, err := ht.Key(Request{Op: "gemm", Shape: " 64 , 64 , 64 ", Target: "cpu"}.normalize())
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("equivalent shapes keyed differently:\n%s\n%s", k1, k2)
	}
	k3, err := ht.Key(Request{Op: "gemm", Shape: "128,64,64", Target: "cpu"}.normalize())
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Fatal("different shapes share a key")
	}
	if _, err := ht.Key(Request{Op: "gemm", Shape: "64,64,64", Target: "cpu", Network: "bert"}.normalize()); err == nil {
		t.Fatal("op+network must be rejected")
	}
	nk, err := ht.Key(Request{Network: "bert", Target: "cpu"}.normalize())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nk, "network:bert@b1") {
		t.Fatalf("network key = %s", nk)
	}
	// Pool width never changes a result, so it never splits a job.
	nk4, err := ht.Key(Request{Network: "bert", Target: "cpu", Workers: 4}.normalize())
	if err != nil {
		t.Fatal(err)
	}
	if nk != nk4 {
		t.Fatalf("requests differing only in workers keyed differently:\n%s\n%s", nk, nk4)
	}
}
