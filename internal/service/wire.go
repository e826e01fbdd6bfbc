package service

import "harl"

// TuneAccepted is the 202 body of POST /v1/tune when the request misses the
// registry and a tuning job is enqueued (or an identical in-flight job is
// joined).
type TuneAccepted struct {
	// Job is the queued job's snapshot at submission time; poll
	// GET /v1/jobs/{id} or stream GET /v1/jobs/{id}/events to follow it.
	Job Job `json:"job"`
	// Coalesced reports that an identical request was already in flight and
	// this one joined it instead of starting a second search.
	Coalesced bool `json:"coalesced"`
}

// JobsList is the 200 body of GET /v1/jobs.
type JobsList struct {
	Jobs []Job `json:"jobs"`
}

// HealthBody is the 200 body of GET /healthz.
type HealthBody struct {
	Status       string  `json:"status"`
	RegistryKeys int     `json:"registry_keys"`
	Metrics      Metrics `json:"metrics"`
}

// ScheduleResponse is the 200 body of a registry hit — both a
// GET /v1/schedule lookup and the fast path of POST /v1/tune.
type ScheduleResponse struct {
	CacheHit     bool    `json:"cache_hit"`
	Workload     string  `json:"workload"`
	Target       string  `json:"target"`
	Scheduler    string  `json:"scheduler"`
	ExecSeconds  float64 `json:"exec_seconds"`
	GFLOPS       float64 `json:"gflops"`
	Trials       int     `json:"trials"`
	BestSchedule string  `json:"best_schedule"`
	Steps        string  `json:"steps"`
}

func hitResponse(hit harl.SavedSchedule) ScheduleResponse {
	return ScheduleResponse{
		CacheHit:    true,
		Workload:    hit.Record.Workload,
		Target:      hit.Record.Target,
		Scheduler:   hit.Record.Scheduler,
		ExecSeconds: hit.ExecSeconds,
		GFLOPS:      hit.GFLOPS,
		// Trials is the stored record's task-local trial index — the search
		// depth at which the cached schedule was measured (for records
		// published by finished sessions, the session's total trial count) —
		// not what this request spent: a hit costs zero new measurements by
		// definition.
		Trials:       hit.Record.Trial,
		BestSchedule: hit.Schedule,
		Steps:        hit.Record.Steps,
	}
}
