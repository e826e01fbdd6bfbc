package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"harl"
	"harl/internal/fleet"
	"harl/internal/hardware"
	"harl/internal/search"
)

// httpTrace is the timing middleware the traced pass puts around the service
// handler and the worker handler. It passes the ResponseWriter through
// untouched (the SSE handler needs its Flusher) and links each handler span to
// the client span of the same request through the X-Bench-Req header, which
// the benchmark's own client sets and only this middleware reads.
type httpTrace struct {
	rec   *recorder
	mu    sync.Mutex
	byReq map[string][]int // request id → handler span ids, until the client span claims them
}

func routeName(r *http.Request) string {
	switch {
	case strings.HasPrefix(r.URL.Path, "/v1/schedule"):
		return "service.handler.schedule"
	case strings.HasPrefix(r.URL.Path, "/v1/tune"):
		return "service.handler.tune"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs"):
		return "service.handler.job"
	}
	return "service.handler.other"
}

func (h *httpTrace) server(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		id := h.rec.add(routeName(r), -1, -1, start, time.Now(), 0)
		if req := r.Header.Get(reqHeader); req != "" {
			h.mu.Lock()
			h.byReq[req] = append(h.byReq[req], id)
			h.mu.Unlock()
		}
	})
}

func (h *httpTrace) worker(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/measure" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		h.rec.add("fleet.worker.handler", -1, -1, start, time.Now(), int(r.ContentLength))
	})
}

// client records the client-side span of request req and adopts the handler
// spans the server recorded for it. It returns the handler time inside it.
func (h *httpTrace) client(name, req string, session int, start, end time.Time) time.Duration {
	id := h.rec.add(name, -1, session, start, end, 0)
	h.mu.Lock()
	kids := h.byReq[req]
	delete(h.byReq, req)
	h.mu.Unlock()
	var inside time.Duration
	h.rec.mu.Lock()
	for _, k := range kids {
		h.rec.spans[k].Parent, h.rec.spans[k].Session = id, session
		inside += h.rec.spans[k].End - h.rec.spans[k].Start
	}
	h.rec.mu.Unlock()
	return inside
}

// scrape reads the named series from GET /metrics.
func (e *serveEnv) scrape() (map[string]float64, error) {
	status, body, err := e.get(e.writer, "/metrics", "")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, nil
}

// runServeTraced is the traced pass of serve-mixed. The same fixed-count
// reader+writer pass runs twice, on a bare server and on one with the timing
// middleware around both handlers; then, with the load off, a closed-loop hit
// burst, the /metrics deltas, and a few fleet-measured sessions the benchmark
// assembles itself so the fleet RPC seam (Pool.EvaluatorFor(t).EvalBatch) can
// be wrapped — each must reproduce the job the service ran for the same shape
// and seed.
func runServeTraced(cfg runConfig, r *runResult, pre *preload, plat *hardware.Platform) *runResult {
	m := r.Metrics
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	r.CalibMs[0] = calibrate(cfg)
	jobsN := scaled(cfg, 200, 3)

	bare, err := setupServe(cfg, pre, plat, wrapHandlers{}, 0, 0)
	if err != nil {
		r.op("setup: " + err.Error())
		return r
	}
	fixed := func(submitted int) bool { return submitted < jobsN }
	ledger := len(r.Ledger)
	bareJobs, _ := servePass(cfg, r, bare, fixed, nil)
	bare.close()
	r.Ledger = r.Ledger[:ledger] // the instrumented pass below runs the same jobs

	rec := newRecorder()
	ht := &httpTrace{rec: rec, byReq: map[string][]int{}}
	env, err := setupServe(cfg, pre, plat, wrapHandlers{server: ht.server, worker: ht.worker}, 1, 0)
	if err != nil {
		r.op("setup: " + err.Error())
		return r
	}
	defer env.close()
	before, err := env.scrape()
	if err != nil {
		r.op(err.Error())
		return r
	}
	jobs, rs := servePass(cfg, r, env, fixed, ht)
	after, err := env.scrape()
	if err != nil {
		r.op(err.Error())
		return r
	}
	if len(jobs) == 0 || len(bareJobs) == 0 || len(rs.latMs) == 0 {
		return r
	}

	// Reader requests: client span minus the handler span inside it is what
	// the transport (loopback TCP, net/http on both ends) costs.
	var transportUs []float64
	for i := range rs.sent {
		inside := ht.client("client.hit", fmt.Sprintf("r%d", i), -1, rs.sent[i], rs.done[i])
		transportUs = append(transportUs, float64(rs.done[i].Sub(rs.sent[i])-inside)/1e3)
	}
	var wallMs, bareMs, firstMs []float64
	trials := 0
	for _, j := range jobs {
		wallMs, firstMs = append(wallMs, j.wallMs), append(firstMs, j.firstMs)
		trials += j.trials
	}
	for _, j := range bareJobs {
		bareMs = append(bareMs, j.wallMs)
	}

	// Closed-loop burst on one connection with the writer idle: the hit path's
	// own capacity.
	burst := 2 * time.Second
	if cfg.toy {
		burst = 200 * time.Millisecond
	}
	hits, start := 0, time.Now()
	for time.Since(start) < burst {
		_, _, problem := env.hit(env.reader, hits%hotKeys, "")
		r.op(problem)
		hits++
	}
	m["service.hit.closed_loop_rps"] = float64(hits) / time.Since(start).Seconds()

	// Fleet-measured sessions assembled by the benchmark over its own pool to
	// the same worker.
	pool, err := fleet.NewPool([]string{env.wkAddr}, fleet.Config{})
	if err != nil {
		r.op("fleet pool: " + err.Error())
		return r
	}
	defer pool.Close()
	w := &tuneWorkload{name: "serve-mixed", scheduler: missSched, trials: scaled(cfg, missTrials, 32), workers: 1}
	tenv := &tuneEnv{dir: env.dir, target: harl.CPU(), plat: plat, sim: env.sim}
	var builtS []float64
	updates := 0
	for i := 0; i < min(scaled(cfg, 10, 1), len(jobs)); i++ {
		j := jobs[i]
		st := &sessionTracer{rec: rec, session: jobsN + i, remote: func(t *search.Task) search.BatchEvaluator { return pool.EvaluatorFor(t) }}
		b, err := w.buildOperator(tenv, j.shape.job(), j.seed, filepath.Join(env.dir, fmt.Sprintf("fleet-%d.jsonl", i)), st)
		switch {
		case err != nil:
			r.op(fmt.Sprintf("fleet session %s: %v", j.shape, err))
		case b.trials != j.trials || b.bestExec != j.execSec:
			r.op(fmt.Sprintf("fleet session %s differs from the job the service ran: %d vs %d trials, %g vs %g s", j.shape, b.trials, j.trials, b.bestExec, j.execSec))
		default:
			r.op("")
		}
		builtS = append(builtS, b.wall)
		updates += b.updates
	}

	ls := rec.stats()
	us := func(name string) float64 { return 1e6 * median(stat(ls, name).seconds) }
	m["service.handler.schedule_us"] = us("service.handler.schedule")
	m["service.handler.tune_us"] = us("service.handler.tune")
	m["service.handler.job_us"] = us("service.handler.job")
	m["service.transport.hit_us"] = median(transportUs)
	m["service.job.first_event_ms"] = median(firstMs)
	m["service.hit_ms_p50"] = median(rs.latMs)
	m["service.hit_ms_p99"] = quantile(rs.latMs, 0.99)
	m["service.miss_job_ms_p95"] = quantile(wallMs, 0.95)
	m["bench.loadgen.late_ms_p99"] = quantile(rs.lateMs, 0.99)
	m["bench.trace.overhead_pct"] = 100 * (median(wallMs) - median(bareMs)) / median(bareMs)
	m["harl.session.overhead_s"] = median(wallMs)/1e3 - median(builtS)
	m["harl.trials_per_s"] = float64(trials) / (mean(wallMs) / 1e3 * float64(len(jobs)))

	for name, series := range map[string]string{
		"registry.appends":           "harl_registry_appends_total",
		"registry.lock_acquisitions": "harl_registry_lock_acquisitions_total",
		"registry.batches_flushed":   "harl_registry_batches_flushed_total",
	} {
		m[name] = after[series] - before[series]
	}
	m["registry.resident_shards"] = after["harl_registry_resident_shards"]

	rpc, handler := stat(ls, "fleet.rpc"), stat(ls, "fleet.worker.handler")
	m["fleet.rpc.batches"] = float64(rpc.calls)
	m["fleet.rpc.trials"] = float64(rpc.n)
	m["fleet.rpc.total_s"] = rpc.total
	m["fleet.rpc.p50_ms"] = 1e3 * median(rpc.seconds)
	m["fleet.worker.handler_p50_ms"] = 1e3 * median(handler.seconds)
	if handler.calls > 0 {
		m["fleet.rpc.request_bytes_mean"] = float64(handler.n) / float64(handler.calls)
	}
	fs, ps := env.fl.Stats(), pool.Stats()
	m["fleet.retries"] = float64(fs.Retries + ps.Retries)
	m["fleet.fallbacks"] = float64(fs.Fallbacks + ps.Fallbacks)
	if fs.Fallbacks+ps.Fallbacks != 0 {
		r.fail(fmt.Sprintf("fleet fell back to in-process measurement %d times", fs.Fallbacks+ps.Fallbacks))
	}
	if int(ps.TrialsDispatched) != rpc.n {
		r.fail(fmt.Sprintf("pool dispatched %d trials, sessions measured %d", ps.TrialsDispatched, rpc.n))
	}

	sessionLayerMetrics(m, ls, updates)

	pr := &prober{m, cfg.toy}
	for _, err := range []error{pr.tune(tenv, jobs[0].shape.job()), pr.registry(pre, plat, env.dir), pr.wire(env)} {
		if err != nil {
			r.fail("probe: " + err.Error())
		}
	}
	m["bench.calib_ms"] = r.CalibMs[0]
	r.CalibMs[1] = calibrate(cfg)
	if err := rec.write(filepath.Join(cfg.outDir, "trace-serve-mixed.json"), "serve-mixed", cfg.seed); err != nil {
		r.fail("write trace: " + err.Error())
	}
	return r
}
