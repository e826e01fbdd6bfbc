package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"harl"
	"harl/internal/wire"
)

// Server is the HTTP surface of the tuning service:
//
//	POST   /v1/tune      submit a tuning request (resolve-first: a registry
//	                     hit answers 200 immediately with zero trials; a miss
//	                     enqueues and answers 202 with the job — identical
//	                     concurrent requests coalesce into one job)
//	GET    /v1/schedule  look up the best known schedule without tuning
//	GET    /v1/jobs      list jobs; GET /v1/jobs/{id} one job's state
//	GET    /v1/jobs/{id}/events  live job progress as an SSE stream: the
//	                     buffered events replay first, then new ones tail as
//	                     the search commits them, ending with the finished job
//	DELETE /v1/jobs/{id} cancel a queued or running job (the session
//	                     checkpoints and keeps its partial best)
//	GET    /healthz      liveness
//	GET    /metrics      queue depth, hit rate, trial and fleet counters
//	                     (Prometheus text format)
//
// Responses are the named wire types of this package (see wire.go); every
// error response is the v1 envelope (wire.ErrorBody) with a stable machine code.
type Server struct {
	queue    *Queue
	registry *harl.Registry
	fleet    *harl.Fleet
	mux      *http.ServeMux
}

// NewServer wires the queue and the (possibly nil) registry into a handler.
func NewServer(q *Queue, reg *harl.Registry) *Server {
	s := &Server{queue: q, registry: reg, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/tune", s.handleTune)
	s.mux.HandleFunc("GET /v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// SetFleet attaches the measurement fleet whose dispatch counters /metrics
// exports. Call before serving; the server only reads stats from it (the
// tuner holds its own reference for dispatch).
func (s *Server) SetFleet(f *harl.Fleet) { s.fleet = f }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON and writeError delegate to the shared v1 writers: marshal-first
// (so an unencodable value degrades to a contract-conforming internal-error
// envelope, never a truncated or ad-hoc body), envelope-always for errors.
func writeJSON(w http.ResponseWriter, status int, v any) {
	wire.WriteJSON(w, status, v)
}

func writeError(w http.ResponseWriter, status int, code wire.ErrorCode, err error) {
	wire.WriteError(w, status, code, "%s", err.Error())
}

// registryIOError marks a registry storage failure, as opposed to an invalid
// request: handlers answer 500 registry_io and bump the registry-error
// counter, because a miss fabricated from an unreadable registry would
// silently burn a full search (or report a schedule absent that is durably
// there).
type registryIOError struct{ err error }

func (e registryIOError) Error() string { return e.err.Error() }
func (e registryIOError) Unwrap() error { return e.err }

// lookup resolves a normalized operator request against the registry.
// Network requests have no single stored schedule and never fast-path. A
// stored record that no longer reconstructs (foreign or stale registry) is
// reported as a miss, not an error: the tune path falls through to a fresh
// search that repairs the key, and the lookup endpoint reports absence. An
// invalid request surfaces its error (a 400 to the client); a registry read
// failure comes back as a registryIOError (a 500 — it is not a miss).
func (s *Server) lookup(req Request) (harl.SavedSchedule, bool, error) {
	if s.registry == nil || req.Network != "" {
		return harl.SavedSchedule{}, false, nil
	}
	w, tgt, _, err := resolveRequest(req)
	if err != nil {
		return harl.SavedSchedule{}, false, err
	}
	hit, ok, err := s.registry.Lookup(w, tgt, req.Scheduler)
	if err != nil {
		if errors.Is(err, harl.ErrRecordBroken) {
			return harl.SavedSchedule{}, false, nil
		}
		return harl.SavedSchedule{}, false, registryIOError{err}
	}
	return hit, ok, nil
}

// writeLookupError maps a lookup failure onto the HTTP surface: storage
// errors are 500 registry_io and counted, anything else is the client's bad
// request.
func (s *Server) writeLookupError(w http.ResponseWriter, err error) {
	var ioe registryIOError
	if errors.As(err, &ioe) {
		s.queue.CountRegistryError()
		writeError(w, http.StatusInternalServerError, wire.CodeRegistryIO, err)
		return
	}
	writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest, err)
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest, fmt.Errorf("service: bad request body: %w", err))
		return
	}
	req = req.normalize()
	hit, ok, err := s.lookup(req)
	if err != nil {
		s.writeLookupError(w, err)
		return
	}
	if ok {
		// The whole point of the service: a known workload is answered from
		// the registry without queueing anything.
		s.queue.CountRegistryHit()
		writeJSON(w, http.StatusOK, hitResponse(hit))
		return
	}
	// Submit returns the job snapshot taken under the queue lock: a job that
	// finishes and is retention-evicted right after submission still renders
	// fully populated here (a follow-up Get could already miss it).
	job, coalesced, err := s.queue.Submit(req)
	if err != nil {
		if errors.Is(err, errShuttingDown) {
			writeError(w, http.StatusServiceUnavailable, wire.CodeShuttingDown, err)
			return
		}
		writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest, err)
		return
	}
	if !coalesced {
		s.queue.CountRegistryMiss()
	}
	writeJSON(w, http.StatusAccepted, TuneAccepted{Job: job, Coalesced: coalesced})
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if s.registry == nil {
		writeError(w, http.StatusNotFound, wire.CodeNotFound, fmt.Errorf("service: no registry configured"))
		return
	}
	q := r.URL.Query()
	batch := 1
	if b := q.Get("batch"); b != "" {
		v, err := strconv.Atoi(b)
		if err != nil {
			writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest, fmt.Errorf("service: bad batch %q", b))
			return
		}
		if v < 1 {
			// An explicit non-positive batch is the client's error; clamping it
			// to 1 would answer a question the client never asked.
			writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest, fmt.Errorf("service: batch must be >= 1, got %d", v))
			return
		}
		batch = v
	}
	req := Request{
		Op:        q.Get("op"),
		Shape:     q.Get("shape"),
		Batch:     batch,
		Target:    q.Get("target"),
		Scheduler: q.Get("scheduler"),
	}.normalize()
	if req.Op == "" {
		writeError(w, http.StatusBadRequest, wire.CodeInvalidRequest, fmt.Errorf("service: schedule lookup needs op and shape query parameters"))
		return
	}
	hit, ok, err := s.lookup(req)
	if err != nil {
		s.writeLookupError(w, err)
		return
	}
	if !ok {
		s.queue.CountRegistryMiss()
		writeError(w, http.StatusNotFound, wire.CodeNotFound, fmt.Errorf("service: no schedule for this (workload, target, scheduler)"))
		return
	}
	s.queue.CountRegistryHit()
	writeJSON(w, http.StatusOK, hitResponse(hit))
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, JobsList{Jobs: s.queue.Jobs()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, wire.CodeNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// handleJobEvents streams a job's progress as Server-Sent Events: every
// buffered event replays first (late subscribers catch up), then live events
// tail as the search commits them, and a final "done" event carries the
// finished job. Each progress frame's id is the event's job-scoped sequence
// number, so a reconnecting client resumes from Last-Event-ID instead of
// re-reading the replay. The stream ends when the job reaches a terminal
// state or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	plog, ok := s.queue.Progress(id)
	if !ok {
		writeError(w, http.StatusNotFound, wire.CodeNotFound, fmt.Errorf("service: no job %q", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, wire.CodeInternal, fmt.Errorf("service: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	after := 0
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if v, err := strconv.Atoi(lei); err == nil && v >= 0 {
			after = v + 1
		}
	}
	for {
		evs, wait, closed := plog.after(after)
		for _, e := range evs {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: progress\ndata: %s\n\n", e.Seq, data)
			after = e.Seq + 1
		}
		fl.Flush()
		if closed && len(evs) == 0 {
			break
		}
		if closed {
			continue // drain whatever was published before the close
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
	// Terminal frame: the finished job. The snapshot can be gone if the job
	// was retention-evicted while we streamed; the stream still terminates
	// cleanly with an empty done event.
	done := []byte("{}")
	if job, ok := s.queue.Get(id); ok {
		if data, err := json.Marshal(job); err == nil {
			done = data
		}
	}
	fmt.Fprintf(w, "event: done\ndata: %s\n\n", done)
	fl.Flush()
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.queue.Cancel(id) {
		writeError(w, http.StatusConflict, wire.CodeNotCancellable, fmt.Errorf("service: job %q does not exist or already finished", id))
		return
	}
	job, _ := s.queue.Get(id)
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	keys := 0
	if s.registry != nil {
		keys = s.registry.Len()
	}
	writeJSON(w, http.StatusOK, HealthBody{
		Status:       "ok",
		RegistryKeys: keys,
		Metrics:      s.queue.Metrics(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.queue.Metrics()
	keys := 0
	if s.registry != nil {
		keys = s.registry.Len()
	}
	hitRate := 0.0
	if total := m.RegistryHits + m.RegistryMisses; total > 0 {
		hitRate = float64(m.RegistryHits) / float64(total)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP harl_queue_depth Tuning jobs waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE harl_queue_depth gauge\nharl_queue_depth %d\n", m.QueueDepth)
	fmt.Fprintf(w, "# TYPE harl_jobs_running gauge\nharl_jobs_running %d\n", m.Running)
	fmt.Fprintf(w, "# TYPE harl_jobs_submitted_total counter\nharl_jobs_submitted_total %d\n", m.Submitted)
	fmt.Fprintf(w, "# TYPE harl_jobs_coalesced_total counter\nharl_jobs_coalesced_total %d\n", m.Coalesced)
	fmt.Fprintf(w, "# TYPE harl_jobs_done_total counter\nharl_jobs_done_total %d\n", m.Done)
	fmt.Fprintf(w, "# TYPE harl_jobs_failed_total counter\nharl_jobs_failed_total %d\n", m.Failed)
	fmt.Fprintf(w, "# TYPE harl_jobs_cancelled_total counter\nharl_jobs_cancelled_total %d\n", m.Cancelled)
	fmt.Fprintf(w, "# TYPE harl_jobs_plateau_stopped_total counter\nharl_jobs_plateau_stopped_total %d\n", m.PlateauStopped)
	fmt.Fprintf(w, "# TYPE harl_registry_hits_total counter\nharl_registry_hits_total %d\n", m.RegistryHits)
	fmt.Fprintf(w, "# TYPE harl_registry_misses_total counter\nharl_registry_misses_total %d\n", m.RegistryMisses)
	fmt.Fprintf(w, "# TYPE harl_registry_errors_total counter\nharl_registry_errors_total %d\n", m.RegistryErrors)
	fmt.Fprintf(w, "# TYPE harl_registry_hit_rate gauge\nharl_registry_hit_rate %.4f\n", hitRate)
	fmt.Fprintf(w, "# TYPE harl_registry_keys gauge\nharl_registry_keys %d\n", keys)
	if s.registry != nil {
		rs := s.registry.Stats()
		fmt.Fprintf(w, "# TYPE harl_registry_records gauge\nharl_registry_records %d\n", rs.Records)
		fmt.Fprintf(w, "# TYPE harl_registry_appends_total counter\nharl_registry_appends_total %d\n", rs.Appends)
		fmt.Fprintf(w, "# TYPE harl_registry_lock_acquisitions_total counter\nharl_registry_lock_acquisitions_total %d\n", rs.LockAcquisitions)
		fmt.Fprintf(w, "# TYPE harl_registry_resident_shards gauge\nharl_registry_resident_shards %d\n", rs.ResidentShards)
	}
	if s.fleet != nil {
		fs := s.fleet.Stats()
		fmt.Fprintf(w, "# TYPE harl_fleet_workers gauge\nharl_fleet_workers %d\n", fs.Workers)
		fmt.Fprintf(w, "# TYPE harl_fleet_workers_healthy gauge\nharl_fleet_workers_healthy %d\n", fs.Healthy)
		fmt.Fprintf(w, "# TYPE harl_fleet_batches_dispatched_total counter\nharl_fleet_batches_dispatched_total %d\n", fs.BatchesDispatched)
		fmt.Fprintf(w, "# TYPE harl_fleet_trials_dispatched_total counter\nharl_fleet_trials_dispatched_total %d\n", fs.TrialsDispatched)
		fmt.Fprintf(w, "# TYPE harl_fleet_retries_total counter\nharl_fleet_retries_total %d\n", fs.Retries)
		fmt.Fprintf(w, "# TYPE harl_fleet_ejections_total counter\nharl_fleet_ejections_total %d\n", fs.Ejections)
		fmt.Fprintf(w, "# TYPE harl_fleet_readmissions_total counter\nharl_fleet_readmissions_total %d\n", fs.Readmissions)
		fmt.Fprintf(w, "# TYPE harl_fleet_fallbacks_total counter\nharl_fleet_fallbacks_total %d\n", fs.Fallbacks)
	}
	fmt.Fprintf(w, "# TYPE harl_trials_measured_total counter\nharl_trials_measured_total %d\n", m.TrialsMeasured)
}
