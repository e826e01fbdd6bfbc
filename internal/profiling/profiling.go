// Package profiling wires Go's standard profiling endpoints into the HARL
// daemons. The pprof handlers are mounted on their own mux and listener —
// never on the service port — so enabling profiling does not expose
// /debug/pprof/ to tuning clients, and the flag defaults to off.
package profiling

import (
	"net/http"
	"net/http/pprof"
)

// handler returns a mux serving only the net/http/pprof endpoints under
// /debug/pprof/. Daemons mount it on a dedicated address given by their
// -pprof flag:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=30
//	go tool pprof http://localhost:6060/debug/pprof/heap
func handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ListenAndServe serves handler() on addr. It blocks, so daemons run it in a
// goroutine; a listen failure is reported through the returned error rather
// than killing the daemon (profiling is diagnostics, not the service).
func ListenAndServe(addr string) error {
	return http.ListenAndServe(addr, handler())
}
