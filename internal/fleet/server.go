package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/sketch"
	"harl/internal/wire"
)

// Worker is the harl-worker daemon's request handler: it executes measure
// batches with the deterministic simulator and reports health. It holds no
// tuning state — everything a batch needs arrives in the request, so any
// worker can serve any coordinator, and a restarted worker resumes cold with
// no correctness impact.
type Worker struct {
	// targets is the platform restriction from -targets; empty serves all.
	targets map[string]bool
	// targetNames is what /healthz advertises (full platform names).
	targetNames []string
	pool        *search.ParallelPool

	batches atomic.Int64
	trials  atomic.Int64

	// sims caches one simulator per platform; simulators are stateless and
	// shareable across requests.
	simMu sync.Mutex
	sims  map[string]*hardware.Simulator
}

// NewWorker builds a worker serving the given target platforms (short or full
// names; empty means every registered platform) that evaluates each batch's
// trials across evalWorkers goroutines (<=0 means GOMAXPROCS).
func NewWorker(targets []string, evalWorkers int) (*Worker, error) {
	w := &Worker{
		targets: make(map[string]bool),
		pool:    search.NewParallelPool(evalWorkers),
		sims:    make(map[string]*hardware.Simulator),
	}
	if len(targets) == 0 {
		targets = hardware.PlatformNames()
	}
	for _, t := range targets {
		plat := hardware.ByName(t)
		if plat == nil {
			return nil, fmt.Errorf("fleet: unknown target platform %q (have %v)", t, hardware.PlatformNames())
		}
		if !w.targets[plat.Name] {
			w.targets[plat.Name] = true
			w.targetNames = append(w.targetNames, plat.Name)
		}
	}
	return w, nil
}

// Handler returns the worker's HTTP surface: POST /v1/measure and
// GET /healthz, with every error response in the v1 envelope.
func (wk *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/measure", wk.handleMeasure)
	mux.HandleFunc("/healthz", wk.handleHealth)
	return mux
}

// Targets returns the full platform names this worker serves.
func (wk *Worker) Targets() []string { return wk.targetNames }

// Batches returns the number of measure batches served.
func (wk *Worker) Batches() int64 { return wk.batches.Load() }

// Trials returns the number of trials measured.
func (wk *Worker) Trials() int64 { return wk.trials.Load() }

func (wk *Worker) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeInvalidRequest, "method %s not allowed; use GET", r.Method)
		return
	}
	wire.WriteJSON(w, http.StatusOK, HealthResponse{
		Status:  "ok",
		Targets: wk.targetNames,
		Batches: wk.batches.Load(),
		Trials:  wk.trials.Load(),
	})
}

func (wk *Worker) handleMeasure(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, http.StatusMethodNotAllowed, wire.CodeInvalidRequest, "method %s not allowed; use POST", r.Method)
		return
	}
	var req MeasureRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "bad measure request: %v", err)
		return
	}
	if req.V != protocolVersion {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "protocol v%d not supported, want v%d", req.V, protocolVersion)
		return
	}
	plat := hardware.ByName(req.Target)
	if plat == nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "unknown target platform %q", req.Target)
		return
	}
	if !wk.targets[plat.Name] {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeUnsupportedTarget, "worker serves %v, not %q", wk.targetNames, plat.Name)
		return
	}
	if len(req.Trials) == 0 {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "measure request has no trials")
		return
	}

	sg, err := req.Subgraph.Build()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "bad subgraph: %v", err)
		return
	}
	// The fingerprint check is the end-to-end integrity guard: if the rebuilt
	// structure differs from what the coordinator measured its schedules
	// against, the sketch list (and so every decoded schedule) would silently
	// diverge.
	if fp := sg.Fingerprint(); fp != req.Workload {
		wire.WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "workload fingerprint mismatch: request says %s, rebuilt subgraph is %s", req.Workload, fp)
		return
	}

	sketches := sketch.Generate(sg)
	scheds := make([]*schedule.Schedule, len(req.Trials))
	for i, tr := range req.Trials {
		s, err := schedule.UnmarshalSteps(sketches, tr.Steps)
		if err != nil {
			wire.WriteError(w, http.StatusBadRequest, wire.CodeInvalidRequest, "trial %d: %v", i, err)
			return
		}
		scheds[i] = s
	}

	sim := wk.simulator(plat)
	out := make([]float64, len(scheds))
	wk.pool.Run(len(scheds), func(i int) {
		out[i] = hardware.NoisyExecSeeded(sim, scheds[i], req.NoiseSeed, req.Trials[i].Seq)
	})

	wk.batches.Add(1)
	wk.trials.Add(int64(len(scheds)))
	wire.WriteJSON(w, http.StatusOK, MeasureResponse{V: protocolVersion, ExecSec: out})
}

func (wk *Worker) simulator(plat *hardware.Platform) *hardware.Simulator {
	wk.simMu.Lock()
	defer wk.simMu.Unlock()
	sim, ok := wk.sims[plat.Name]
	if !ok {
		sim = hardware.NewSimulator(plat)
		wk.sims[plat.Name] = sim
	}
	return sim
}
