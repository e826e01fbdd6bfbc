package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"harl/internal/schedule"
	"harl/internal/wire"
)

// RemoteMeasurer evaluates measure batches on the fleet for one task. It
// implements search.BatchEvaluator: search.Task.MeasureBatch hands it the
// batch after reserving repetition indices, and falls back to in-process
// measurement of the same (schedule, seq) pairs when EvalBatch errors — which
// yields the identical values, so the fallback changes throughput only.
//
// One RemoteMeasurer is pinned to one (workload, target, noise seed) triple;
// Pool.EvaluatorFor builds it from the task.
type RemoteMeasurer struct {
	pool      *Pool
	target    string
	workload  string
	noiseSeed uint64
	spec      SubgraphSpec
}

// EvalBatch dispatches one measure batch: it leases a healthy worker, runs
// the RPC under the pool's per-batch timeout, and on failure retries against
// the rotation with exponential backoff up to the configured bound. When no
// lease is available or the attempts are exhausted it returns an error, which
// the caller treats as "measure this batch in-process" (counted as a
// fallback).
func (r *RemoteMeasurer) EvalBatch(scheds []*schedule.Schedule, seqs []uint64) ([]float64, error) {
	trials := make([]TrialSpec, len(scheds))
	for i, s := range scheds {
		trials[i] = TrialSpec{Steps: s.MarshalSteps(), Seq: seqs[i]}
	}
	body, err := json.Marshal(MeasureRequest{
		V:         protocolVersion,
		Workload:  r.workload,
		Target:    r.target,
		NoiseSeed: r.noiseSeed,
		Subgraph:  r.spec,
		Trials:    trials,
	})
	if err != nil {
		r.pool.countFallback()
		return nil, err
	}

	var lastErr error
	backoff := r.pool.cfg.BackoffBase
	for attempt := 0; attempt <= r.pool.cfg.Retries; attempt++ {
		if attempt > 0 {
			r.pool.countRetry()
			time.Sleep(backoff)
			backoff *= 2
		}
		w, ok := r.pool.lease(r.target)
		if !ok {
			if lastErr == nil {
				lastErr = fmt.Errorf("fleet: no healthy worker serves target %q", r.target)
			}
			break
		}
		res, err := r.dispatch(w, body, len(trials))
		r.pool.release(w, err)
		if err == nil {
			r.pool.countBatch(len(trials))
			return res, nil
		}
		lastErr = err
	}
	r.pool.countFallback()
	return nil, lastErr
}

// dispatch runs one measure RPC against one worker and validates the response
// shape: protocol version, result count, and finite positive values. Any
// violation is an error — a half-right batch must never reach the journal.
func (r *RemoteMeasurer) dispatch(w *worker, body []byte, n int) ([]float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.pool.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.endpoint+"/v1/measure", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.pool.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, wire.DecodeError(resp)
	}
	var mr MeasureResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return nil, fmt.Errorf("fleet: bad measure body from %s: %w", w.endpoint, err)
	}
	if mr.V != protocolVersion {
		return nil, fmt.Errorf("fleet: worker %s speaks protocol v%d, want v%d", w.endpoint, mr.V, protocolVersion)
	}
	if len(mr.ExecSec) != n {
		return nil, fmt.Errorf("fleet: worker %s returned %d results for %d trials", w.endpoint, len(mr.ExecSec), n)
	}
	for i, v := range mr.ExecSec {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("fleet: worker %s returned non-finite exec time %v at trial %d", w.endpoint, v, i)
		}
	}
	return mr.ExecSec, nil
}
