package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harl"
)

// TestScheduleRejectsNonPositiveBatch is the S4 regression: batch=-3 used to
// be silently clamped to 1, answering a request the client never made (and
// caching a job under the wrong key). Explicit non-positive batches are the
// client's error.
func TestScheduleRejectsNonPositiveBatch(t *testing.T) {
	srv, q, ft, _ := serveTestEnv(t)
	for _, batch := range []string{"-3", "0"} {
		resp, out := getJSON(t, srv.URL+"/v1/schedule?op=gemm&shape=256,256,256&batch="+batch)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("batch=%s: status %d, want 400; body %v", batch, resp.StatusCode, out)
		}
		env, _ := out["error"].(map[string]any)
		if code, _ := env["code"].(string); code != "invalid_request" {
			t.Fatalf("batch=%s: error code %q, want invalid_request", batch, code)
		}
		if msg, _ := env["message"].(string); !strings.Contains(msg, "batch") {
			t.Fatalf("batch=%s: error %q does not name the batch field", batch, msg)
		}
	}
	// The same request with a valid batch still hits.
	resp, _ := getJSON(t, srv.URL+"/v1/schedule?op=gemm&shape=256,256,256&batch=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch=1 control: status %d, want 200", resp.StatusCode)
	}
	if ft.Runs() != 0 {
		t.Fatalf("tuner ran %d searches during lookups", ft.Runs())
	}
	if m := q.Metrics(); m.Submitted != 0 {
		t.Fatalf("rejected lookups enqueued jobs: %+v", m)
	}
}

func TestTuneRejectsNonPositiveBatch(t *testing.T) {
	srv, q, _, _ := serveTestEnv(t)
	resp, out := postJSON(t, srv.URL+"/v1/tune", `{"op":"gemm","shape":"96,96,96","batch":-2}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %v", resp.StatusCode, out)
	}
	if m := q.Metrics(); m.Submitted != 0 {
		t.Fatalf("invalid batch was enqueued: %+v", m)
	}
}

// TestLookupRegistryIOErrorIsServerError is the S3 regression: a registry the
// storage layer cannot read used to be reported as a plain miss — /v1/schedule
// answered 404 for schedules that were durably there, and /v1/tune burned a
// full search per request. It must surface as a 500 with the error counter
// bumped, distinct from the reconstruct-miss case, under either layout.
func TestLookupRegistryIOErrorIsServerError(t *testing.T) {
	for _, tc := range []struct {
		layout string
		// seed prepares the directory before open; brk corrupts the store
		// out from under the open handle. A directory where a journal file
		// belongs errors every read (works even running as root, unlike
		// permission bits).
		seed, brk func(t *testing.T, dir string)
	}{
		{
			layout: "single",
			// A root journal.jsonl is what makes auto open a v1 registry.
			seed: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			brk: func(t *testing.T, dir string) {
				path := filepath.Join(dir, "journal.jsonl")
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			layout: "sharded",
			seed:   func(*testing.T, string) {},
			// Every shard, so the queried key's shard is broken without the
			// test re-deriving the fingerprint routing.
			brk: func(t *testing.T, dir string) {
				for i := 0; i < 256; i++ {
					if err := os.MkdirAll(filepath.Join(dir, "shards", fmt.Sprintf("%02x", i), "journal.jsonl"), 0o755); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
	} {
		t.Run(tc.layout, func(t *testing.T) {
			dir := t.TempDir()
			tc.seed(t, dir)
			reg, err := harl.OpenRegistry(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got := reg.Layout(); got != tc.layout {
				t.Fatalf("registry opened %q, want %q", got, tc.layout)
			}
			ft := newFakeTuner()
			q := NewQueue(ft, 1)
			srv := httptest.NewServer(NewServer(q, reg))
			t.Cleanup(func() {
				srv.Close()
				q.Shutdown()
				reg.Close()
			})
			tc.brk(t, dir)
			resp, out := getJSON(t, srv.URL+"/v1/schedule?op=gemm&shape=64,64,64")
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("schedule over broken registry: status %d, want 500; body %v", resp.StatusCode, out)
			}
			resp, out = postJSON(t, srv.URL+"/v1/tune", `{"op":"gemm","shape":"64,64,64"}`)
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("tune over broken registry: status %d, want 500; body %v", resp.StatusCode, out)
			}
			m := q.Metrics()
			if m.RegistryErrors != 2 {
				t.Fatalf("RegistryErrors = %d, want both failed lookups counted", m.RegistryErrors)
			}
			if m.RegistryMisses != 0 || m.Submitted != 0 {
				t.Fatalf("broken registry misreported as miss or enqueued a job: %+v", m)
			}
			body := getMetricsText(t, srv.URL)
			if !strings.Contains(body, "harl_registry_errors_total 2") {
				t.Fatalf("/metrics lacks harl_registry_errors_total 2:\n%s", body)
			}
		})
	}
}

// TestMetricsExposeRegistryStorageStats: the storage counters (records,
// appends, locks, resident shards) must be rendered for a registry-backed
// server.
func TestMetricsExposeRegistryStorageStats(t *testing.T) {
	srv, _, _, _ := serveTestEnv(t)
	body := getMetricsText(t, srv.URL)
	for _, metric := range []string{
		"harl_registry_errors_total 0",
		"harl_registry_records",
		"harl_registry_appends_total",
		"harl_registry_lock_acquisitions_total",
		"harl_registry_resident_shards",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("/metrics lacks %s:\n%s", metric, body)
		}
	}
}

func getMetricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
