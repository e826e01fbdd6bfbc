package service

import (
	"context"
	"fmt"
	"math"
	"strings"

	"harl"
)

// HarlTuner is the production Tuner: it drives the harl public API with a
// shared best-schedule registry in front (resolve-first inside
// TuneOperatorContext / TuneNetworkContext, publish-after on completion), so
// finished jobs make every later identical request a cache hit.
type HarlTuner struct {
	// Registry, when non-nil, is shared across all sessions (and with the
	// HTTP layer's lookup endpoints).
	Registry *harl.Registry
	// DefaultPlateau is the service-wide early-stop policy applied to
	// requests that leave plateau_window at 0 — the daemon's defense against
	// burning full trial budgets on searches that flatlined early. The zero
	// value disables it; a request can opt out of a configured default with
	// plateau_window < 0, or override it with its own positive window.
	DefaultPlateau harl.Plateau
	// Fleet, when non-nil, is the shared measurement-worker pool every
	// session dispatches its measure batches to (harl-serve -fleet). Remote
	// measurement is bit-identical to in-process, so attaching a fleet never
	// changes results — which is also why it is not part of the coalescing
	// key.
	Fleet *harl.Fleet
}

// plateau resolves a normalized request's effective early-stop policy
// against the service default. It is part of the coalescing identity: two
// requests with different effective policies can produce different results
// and must not share a search.
func (h *HarlTuner) plateau(req Request) harl.Plateau {
	switch {
	case req.PlateauWindow > 0:
		return harl.Plateau{Window: req.PlateauWindow, MinImprovement: req.PlateauMinImprovement}
	case req.PlateauWindow < 0:
		return harl.Plateau{}
	default:
		return h.DefaultPlateau
	}
}

// resolveRequest validates a normalized request against the workload,
// target and scheduler registries and returns its parsed parts.
func resolveRequest(req Request) (w harl.Workload, tgt harl.Target, isNet bool, err error) {
	tgt, err = harl.TargetByName(req.Target)
	if err != nil {
		return w, tgt, false, err
	}
	if _, err := harl.SchedulerByName(req.Scheduler); err != nil {
		return w, tgt, false, err
	}
	if req.Batch < 1 {
		// normalize only defaults an omitted (zero) batch; an explicit
		// negative one is meaningless and must not be clamped into answering
		// for batch 1.
		return w, tgt, false, fmt.Errorf("service: batch must be >= 1, got %d", req.Batch)
	}
	if req.Trials < 0 {
		// Negative trials is the library's pure-cache-replay mode, which
		// needs a resume log the service does not expose; such a job would
		// only ever fail, so reject it at validation time.
		return w, tgt, false, fmt.Errorf("service: trials must be >= 0, got %d", req.Trials)
	}
	if req.PlateauMinImprovement < 0 {
		return w, tgt, false, fmt.Errorf("service: plateau_min_improvement must be >= 0, got %g", req.PlateauMinImprovement)
	}
	if req.PlateauMinImprovement > 0 && req.PlateauWindow <= 0 {
		// Without a positive window the threshold would be silently dropped
		// (window 0 selects the service default policy wholesale, negative
		// opts out); reject instead of ignoring what the client asked for.
		return w, tgt, false, fmt.Errorf("service: plateau_min_improvement needs plateau_window > 0, got window %d", req.PlateauWindow)
	}
	if req.Network != "" {
		if req.Op != "" || req.Shape != "" {
			return w, tgt, false, fmt.Errorf("service: request must set either op+shape or network, not both")
		}
		if _, err := harl.NetworkWorkloads(req.Network, req.Batch); err != nil {
			return w, tgt, true, err
		}
		return w, tgt, true, nil
	}
	if req.Op == "" {
		return w, tgt, false, fmt.Errorf("service: request needs op+shape or network")
	}
	dims, err := harl.ParseShape(req.Shape)
	if err != nil {
		return w, tgt, false, err
	}
	w, err = harl.OperatorWorkload(req.Op, dims, req.Batch)
	return w, tgt, false, err
}

// Key implements Tuner: the coalescing identity is the workload fingerprint
// (structural, so differently-spelled but identical shapes unify) plus
// target, scheduler and the run parameters that change the result — not
// Workers: requests differing only in pool width compute the same result and
// share one job.
func (h *HarlTuner) Key(req Request) (string, error) {
	w, tgt, isNet, err := resolveRequest(req)
	if err != nil {
		return "", err
	}
	var workload string
	if isNet {
		workload = fmt.Sprintf("network:%s@b%d", strings.ToLower(req.Network), req.Batch)
	} else {
		workload = w.Fingerprint()
	}
	p := h.plateau(req)
	return fmt.Sprintf("%s|%s|%s|t%d|s%d|pw%d|pi%g", workload, tgt.Name(), req.Scheduler,
		req.Trials, req.Seed, p.Window, p.MinImprovement), nil
}

// Tune implements Tuner by running the cancellable harl session, forwarding
// every committed progress event to the job's stream.
func (h *HarlTuner) Tune(ctx context.Context, req Request, progress func(harl.ProgressEvent)) (Outcome, error) {
	w, tgt, isNet, err := resolveRequest(req)
	if err != nil {
		return Outcome{}, err
	}
	opts := harl.Options{
		Scheduler:  req.Scheduler,
		Trials:     req.Trials,
		Seed:       req.Seed,
		Workers:    req.Workers,
		Registry:   h.Registry,
		OnProgress: progress,
		Plateau:    h.plateau(req),
		FleetPool:  h.Fleet,
	}
	if isNet {
		res, err := harl.TuneNetworkContext(ctx, req.Network, req.Batch, tgt, opts)
		if err != nil {
			return Outcome{}, err
		}
		exec := res.MeasuredSeconds
		if math.IsInf(exec, 0) || math.IsNaN(exec) {
			// A session cancelled before every subgraph measured has no
			// end-to-end estimate; +Inf is not JSON-encodable and would make
			// the whole job listing unserializable.
			exec = 0
		}
		return Outcome{
			Workload:       res.Network,
			Target:         tgt.Name(),
			Scheduler:      req.Scheduler,
			ExecSeconds:    exec,
			Trials:         res.Trials,
			Measured:       res.Trials,
			SearchSeconds:  res.SearchSeconds,
			CacheHit:       res.Trials == 0 && res.CacheHits == len(res.Breakdown),
			Cancelled:      res.Cancelled,
			PlateauStopped: res.PlateauStopped,
		}, nil
	}
	res, err := harl.TuneOperatorContext(ctx, w, tgt, opts)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Workload:       w.Name(),
		Target:         tgt.Name(),
		Scheduler:      req.Scheduler,
		ExecSeconds:    res.ExecSeconds,
		GFLOPS:         res.GFLOPS,
		Trials:         res.Trials,
		Measured:       res.Trials,
		SearchSeconds:  res.SearchSeconds,
		BestSchedule:   res.BestSchedule,
		CacheHit:       res.CacheHit,
		Cancelled:      res.Cancelled,
		PlateauStopped: res.PlateauStopped,
	}, nil
}
