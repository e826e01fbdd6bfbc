// Package wire defines the versioned v1 API contract shared by every HTTP
// surface of the system: the public REST API served by harl-serve
// (internal/service) and the measurement-worker protocol served by
// harl-worker (internal/fleet).
//
// The contract has one error shape. Every non-2xx response from a /v1
// endpoint of either daemon is an ErrorBody:
//
//	{"error":{"code":"<machine_code>","message":"<human detail>"}}
//
// Codes are stable, machine-matchable strings (see ErrorCode); messages are
// human diagnostics and carry no stability promise. Clients branch on the
// code, never on message text.
//
// The package is a leaf — it imports only the standard library — so the
// service layer, the fleet client, the worker daemon and external client code
// can all share it without import cycles.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// ErrorCode is a stable machine-readable error identifier. New codes may be
// added; existing codes never change meaning.
type ErrorCode string

const (
	// CodeInvalidRequest marks a malformed or unresolvable request (bad JSON,
	// unknown workload/target/scheduler, out-of-range parameter). HTTP 400.
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeNotFound marks an absent resource: an unknown job id, or a schedule
	// lookup that missed the registry. HTTP 404.
	CodeNotFound ErrorCode = "not_found"
	// CodeNotCancellable marks a cancel of a job that does not exist or
	// already finished. HTTP 409.
	CodeNotCancellable ErrorCode = "not_cancellable"
	// CodeRegistryIO marks a registry storage failure: the lookup neither hit
	// nor missed, because the backing store could not be read. HTTP 500.
	CodeRegistryIO ErrorCode = "registry_io"
	// CodeShuttingDown marks a request that arrived while the daemon was
	// draining. HTTP 503.
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeUnsupportedTarget marks a measurement request for a platform the
	// worker does not serve (see harl-worker -targets). HTTP 400.
	CodeUnsupportedTarget ErrorCode = "unsupported_target"
	// CodeInternal marks an unexpected server-side failure, including the
	// response-encoding fallback. HTTP 500.
	CodeInternal ErrorCode = "internal"
)

// ErrorInfo is the body of the envelope: the stable code plus a human
// diagnostic message.
type ErrorInfo struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// ErrorBody is the one error response shape of the v1 contract.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// errorf builds an envelope value.
func errorf(code ErrorCode, format string, args ...any) ErrorBody {
	return ErrorBody{Error: ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)}}
}

// WriteJSON writes v as an indented JSON response. It marshals before writing
// the header, so an unencodable value — which would otherwise truncate the
// body mid-status — degrades to a contract-conforming internal error envelope
// instead of a hand-written string that bypasses it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		WriteError(w, http.StatusInternalServerError, CodeInternal, "response not JSON-encodable: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// WriteError writes the v1 error envelope. The envelope itself is all string
// fields and cannot fail to marshal, so this is the floor every error path
// bottoms out on — including WriteJSON's own encode-failure fallback.
func WriteError(w http.ResponseWriter, status int, code ErrorCode, format string, args ...any) {
	body := errorf(code, format, args...)
	data, err := json.MarshalIndent(body, "", " ")
	if err != nil {
		// Unreachable with string fields; keep the contract anyway.
		http.Error(w, `{"error":{"code":"internal","message":"error response not encodable"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// APIError is a decoded v1 error envelope plus its HTTP status — what client
// code (the fleet dispatcher, external consumers) gets back from a non-2xx
// response.
type APIError struct {
	Status  int
	Code    ErrorCode
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("api error %d (%s): %s", e.Status, e.Code, e.Message)
}

// maxErrorBody bounds how much of an error response a client reads: error
// envelopes are small, and an endpoint that is not speaking the protocol at
// all (a proxy error page, say) must not balloon memory.
const maxErrorBody = 64 << 10

// DecodeError reads a non-2xx response body as the v1 envelope. A body that
// is not a valid envelope (a non-v1 server, a proxy interposing) still comes
// back as an APIError, with CodeInternal and the raw body as the message, so
// callers always have one error type to branch on.
func DecodeError(resp *http.Response) *APIError {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var body ErrorBody
	if err := json.Unmarshal(raw, &body); err == nil && body.Error.Code != "" {
		return &APIError{Status: resp.StatusCode, Code: body.Error.Code, Message: body.Error.Message}
	}
	msg := string(raw)
	if msg == "" {
		msg = resp.Status
	}
	return &APIError{Status: resp.StatusCode, Code: CodeInternal, Message: msg}
}
