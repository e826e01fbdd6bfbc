package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"harl/internal/wire"
)

func newTestServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// doRequest performs the call and decodes the body into the typed v1
// envelope, so the test fails if the response is shaped like anything else.
func doRequest(t *testing.T, method, url, body string) (*http.Response, wire.ErrorBody) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env wire.ErrorBody
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s %s: body is not JSON: %v (%s)", method, url, err, raw)
	}
	return resp, env
}

// TestV1ErrorContract sweeps every /v1 endpoint's error paths and asserts
// the one documented envelope: {"error":{"code":..., "message":...}} with a
// stable machine code and a non-empty human message.
func TestV1ErrorContract(t *testing.T) {
	srv, _, _, _ := serveTestEnv(t)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   wire.ErrorCode
	}{
		{"tune bad json", "POST", "/v1/tune", "not json", 400, wire.CodeInvalidRequest},
		{"tune unknown target", "POST", "/v1/tune", `{"op":"gemm","shape":"64,64,64","target":"tpu"}`, 400, wire.CodeInvalidRequest},
		{"tune unknown scheduler", "POST", "/v1/tune", `{"op":"gemm","shape":"64,64,64","scheduler":"sgd"}`, 400, wire.CodeInvalidRequest},
		{"tune deleted scheduler", "POST", "/v1/tune", `{"op":"gemm","shape":"64,64,64","scheduler":"autotvm"}`, 400, wire.CodeInvalidRequest},
		{"tune unknown op", "POST", "/v1/tune", `{"op":"wavelet","shape":"64"}`, 400, wire.CodeInvalidRequest},
		{"tune empty", "POST", "/v1/tune", `{}`, 400, wire.CodeInvalidRequest},
		{"schedule no op", "GET", "/v1/schedule", "", 400, wire.CodeInvalidRequest},
		{"schedule bad batch", "GET", "/v1/schedule?op=gemm&shape=64,64,64&batch=x", "", 400, wire.CodeInvalidRequest},
		{"schedule zero batch", "GET", "/v1/schedule?op=gemm&shape=64,64,64&batch=0", "", 400, wire.CodeInvalidRequest},
		{"schedule unknown target", "GET", "/v1/schedule?op=gemm&shape=64,64,64&target=tpu", "", 400, wire.CodeInvalidRequest},
		{"schedule miss", "GET", "/v1/schedule?op=gemm&shape=60,60,60", "", 404, wire.CodeNotFound},
		{"job not found", "GET", "/v1/jobs/j999", "", 404, wire.CodeNotFound},
		{"job events not found", "GET", "/v1/jobs/j999/events", "", 404, wire.CodeNotFound},
		{"cancel not cancellable", "DELETE", "/v1/jobs/j999", "", 409, wire.CodeNotCancellable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, env := doRequest(t, tc.method, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%+v)", resp.StatusCode, tc.status, env)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("content type %q, want application/json", ct)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code %q, want %q (%+v)", env.Error.Code, tc.code, env)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

// TestTuneAfterShutdownIs503: a drain in progress answers shutting_down, the
// one retryable error code, not a client-error 400.
func TestTuneAfterShutdownIs503(t *testing.T) {
	srv, q, _, _ := serveTestEnv(t)
	q.Shutdown()
	resp, env := doRequest(t, "POST", srv.URL+"/v1/tune", `{"op":"gemm","shape":"96,96,96","trials":8}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%+v)", resp.StatusCode, env)
	}
	if env.Error.Code != wire.CodeShuttingDown {
		t.Fatalf("code %q, want %q", env.Error.Code, wire.CodeShuttingDown)
	}
}

// TestScheduleWithoutRegistryIs404: a daemon serving with no registry
// answers lookups with the envelope, not a bespoke body.
func TestScheduleWithoutRegistryIs404(t *testing.T) {
	q := NewQueue(newFakeTuner(), 1)
	t.Cleanup(q.Shutdown)
	srv := newTestServer(t, NewServer(q, nil))
	resp, env := doRequest(t, "GET", srv.URL+"/v1/schedule?op=gemm&shape=64,64,64", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (%+v)", resp.StatusCode, env)
	}
	if env.Error.Code != wire.CodeNotFound {
		t.Fatalf("code %q, want %q", env.Error.Code, wire.CodeNotFound)
	}
}

// TestWriteJSONEncodeFailureKeepsContract: the encode-failure fallback of the
// shared writer must itself answer the envelope (it used to emit a
// hand-written {"error": "..."} string that bypassed it).
func TestWriteJSONEncodeFailureKeepsContract(t *testing.T) {
	srv := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"bad": func() {}}) // unencodable
	}))
	resp, env := doRequest(t, "GET", srv.URL+"/", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if env.Error.Code != wire.CodeInternal {
		t.Fatalf("code %q, want %q", env.Error.Code, wire.CodeInternal)
	}
	if env.Error.Message == "" {
		t.Fatal("empty error message")
	}
}
