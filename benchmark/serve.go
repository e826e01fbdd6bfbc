package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"harl"
	"harl/internal/fleet"
	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/service"
	"harl/internal/sketch"
	"harl/internal/tunelog"
	"harl/internal/xrand"
)

// Serve-mixed sizing. The registry holds preloadKeys reconstructable GEMM
// keys on a grid of multiples of 32/64; miss shapes are ≡16 (mod 32), so a
// miss can never collide with a preloaded key.
const (
	preloadKeys  = 2048
	hotKeys      = 64
	hotShare     = 0.9
	readRate     = 1000.0 // reader requests per second, open loop
	missTrials   = 128
	reqHeader    = "X-Bench-Req" // request id the traced pass links spans by
	missSched    = "random"
	preloadSched = "harl"
)

type gemmShape struct{ m, k, n int }

func (s gemmShape) String() string { return fmt.Sprintf("%d,%d,%d", s.m, s.k, s.n) }

func (s gemmShape) job() *tuneJob {
	j := gemmJob(s.m, s.k, s.n)
	return &j
}

// preload is the registry's initial content: one journal of 2048 records, each
// a valid random schedule of its own GEMM shape, and the run time each key
// must answer with.
type preload struct {
	journal string
	shapes  []gemmShape
	exec    []float64
	// registries are sharded registries that already hold the journal's keys:
	// one for an untraced run (its set-up repetitions reopen it), two for the
	// traced pass (the bare and the instrumented server each publish into one).
	registries []string
}

// genPreload writes the preload journal and imports it into the sharded
// registries the run will serve from. It is input generation, not set-up:
// it happens before the set-up timer starts, because importing 2048 keys into
// 256 shards is a few hundred fsyncs whose time on this host follows the disk,
// not the code (the cost is still reported: probe.registry.*).
func genPreload(cfg runConfig, dir string, plat *hardware.Platform, registries int) (*preload, error) {
	p := &preload{journal: filepath.Join(dir, "preload.jsonl")}
	jr, err := tunelog.OpenJournal(p.journal)
	if err != nil {
		return nil, err
	}
	sim := hardware.NewSimulator(plat)
	rng := xrand.New(xrand.Hash64(cfg.seed, 0x7072656c))
	for a := 1; a <= 16; a++ {
		for b := 1; b <= 16; b++ {
			for c := 1; c <= scaled(cfg, preloadKeys, 256)/256; c++ {
				sh := gemmShape{32 * a, 32 * b, 64 * c}
				sg := sh.job().sg
				sks := sketch.Generate(sg)
				s := schedule.NewRandom(sks[rng.Intn(len(sks))], len(plat.UnrollDepths), rng)
				exec := sim.Exec(s)
				if err := jr.Append(tunelog.NewRecord(sg, plat.Name, preloadSched, s, exec, 1, cfg.seed)); err != nil {
					jr.Close() //lint:allow errclose the append error is the one reported
					return nil, err
				}
				p.shapes = append(p.shapes, sh)
				p.exec = append(p.exec, exec)
			}
		}
	}
	if err := jr.Close(); err != nil {
		return nil, err
	}
	for i := 0; i < registries; i++ {
		root := filepath.Join(dir, fmt.Sprintf("registry-%d", i))
		reg, err := harl.OpenRegistryOptions(root, harl.RegistryOptions{Layout: "sharded"})
		if err != nil {
			return nil, err
		}
		n, err := reg.ImportJournal(p.journal)
		if cerr := reg.Close(); err == nil {
			err = cerr
		}
		if err != nil || n != len(p.shapes) {
			return nil, fmt.Errorf("preload imported %d of %d keys: %v", n, len(p.shapes), err)
		}
		p.registries = append(p.registries, root)
	}
	return p, nil
}

// serveEnv is the system under test: a sharded registry, one loopback
// measurement worker behind a dialed fleet, the job queue and the HTTP server,
// all in this process, plus the two client connections.
type serveEnv struct {
	dir    string
	sim    *hardware.Simulator
	pre    *preload
	reg    *harl.Registry
	fl     *harl.Fleet
	queue  *service.Queue
	worker *http.Server
	server *http.Server
	base   string
	wkAddr string
	reader *http.Client
	writer *http.Client
	// warmTrials is what the warm-up job dispatched to the fleet before the
	// timed phase; the dispatched-equals-measured check subtracts it.
	warmTrials int64
}

// wrapHandlers lets the traced pass put timing middleware around the two
// handlers; nil leaves them bare, which is how end-to-end numbers are taken.
type wrapHandlers struct {
	server func(http.Handler) http.Handler
	worker func(http.Handler) http.Handler
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// setupServe boots the daemon on preloaded registry number reg. rep numbers
// the set-up repetitions sharing that registry: each warms up with a job of its
// own shape, because the previous repetition's is a hit by now.
func setupServe(cfg runConfig, pre *preload, plat *hardware.Platform, wrap wrapHandlers, reg, rep int) (env *serveEnv, err error) {
	dir, err := scratchDir(cfg, "serve-mixed")
	if err != nil {
		return nil, err
	}
	env = &serveEnv{dir: dir, sim: hardware.NewSimulator(plat), pre: pre,
		reader: oneConnClient(), writer: oneConnClient()}
	defer func() {
		if err != nil {
			env.close()
		}
	}()
	// The layout is auto-detected: a daemon restarting on its registry.
	if env.reg, err = harl.OpenRegistry(pre.registries[reg]); err != nil {
		return nil, err
	}
	if env.reg.Layout() != "sharded" || env.reg.Len() < len(pre.shapes) {
		return nil, fmt.Errorf("preloaded registry opened %s with %d of %d keys", env.reg.Layout(), env.reg.Len(), len(pre.shapes))
	}
	wk, err := fleet.NewWorker(nil, 1)
	if err != nil {
		return nil, err
	}
	wl, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	var wh http.Handler = wk.Handler()
	if wrap.worker != nil {
		wh = wrap.worker(wh)
	}
	env.worker = &http.Server{Handler: wh}
	go env.worker.Serve(wl) // returns ErrServerClosed on Shutdown
	env.wkAddr = wl.Addr().String()
	if env.fl, err = harl.DialFleet([]string{env.wkAddr}); err != nil {
		return nil, err
	}
	env.queue = service.NewQueue(&service.HarlTuner{Registry: env.reg, Fleet: env.fl}, 1)
	srv := service.NewServer(env.queue, env.reg)
	srv.SetFleet(env.fl)
	sl, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	var sh http.Handler = srv
	if wrap.server != nil {
		sh = wrap.server(sh)
	}
	env.server = &http.Server{Handler: sh}
	go env.server.Serve(sl) // returns ErrServerClosed on Shutdown
	env.base = "http://" + sl.Addr().String()

	// Warm-up: one miss job end to end and one hit per connection, so both
	// connections exist and every lazy path has run before the timer starts.
	// k = 48 keeps warm-up shapes off the miss lattice (every dim >= 80).
	j := env.runJob(gemmShape{48 + 32*rep, 48, 48}, sessionSeed(cfg.seed, -1, 0), scaled(cfg, missTrials, 32), "")
	if j.problem != "" {
		return nil, fmt.Errorf("warm-up job: %s", j.problem)
	}
	env.warmTrials = int64(j.measured)
	for _, c := range []*http.Client{env.reader, env.writer} {
		if _, _, problem := env.hit(c, 0, ""); problem != "" {
			return nil, fmt.Errorf("warm-up hit: %s", problem)
		}
	}
	return env, nil
}

// close stops everything setupServe started and waits for it.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.server != nil {
		e.server.Shutdown(ctx) // best effort on teardown
	}
	if e.queue != nil {
		e.queue.Shutdown()
	}
	if e.fl != nil {
		e.fl.Close()
	}
	if e.worker != nil {
		e.worker.Shutdown(ctx) // best effort on teardown
	}
	if e.reg != nil {
		if err := e.reg.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: close registry:", err)
		}
	}
	e.reader.CloseIdleConnections()
	e.writer.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// get issues one GET and returns status and body.
func (e *serveEnv) get(c *http.Client, path, reqID string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, e.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	if reqID != "" {
		req.Header.Set(reqHeader, reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// hit looks preloaded key i up over HTTP. It returns when the request was
// sent, when the body had been read, and "" or what was wrong with the answer
// (checked after the clock stops).
func (e *serveEnv) hit(c *http.Client, i int, reqID string) (sent, done time.Time, problem string) {
	sent = time.Now()
	status, body, err := e.get(c, "/v1/schedule?op=gemm&shape="+e.pre.shapes[i].String(), reqID)
	done = time.Now()
	if err != nil {
		return sent, done, "hit: " + err.Error()
	}
	if status != http.StatusOK {
		return sent, done, fmt.Sprintf("hit %s: status %d", e.pre.shapes[i], status)
	}
	var sr service.ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return sent, done, "hit: " + err.Error()
	}
	if !sr.CacheHit || sr.ExecSeconds != e.pre.exec[i] {
		return sent, done, fmt.Sprintf("hit %s: answered %g s (cache_hit %v), preloaded %g s", e.pre.shapes[i], sr.ExecSeconds, sr.CacheHit, e.pre.exec[i])
	}
	return sent, done, ""
}

// jobResult is one miss followed from POST to verified hit.
type jobResult struct {
	problem   string
	wallMs    float64 // POST sent → verifying hit read
	firstMs   float64 // 202 read → first SSE frame
	trials    int
	measured  int
	execSec   float64
	searchSec float64
	shape     gemmShape
	seed      uint64
}

// runJob submits one miss and follows it the way a client would: POST
// /v1/tune must answer 202, the job's SSE stream is read to its done frame,
// and GET /v1/schedule must then serve the key with the job's exec_seconds.
// The stored steps are re-applied to fresh sketches and re-simulated.
func (e *serveEnv) runJob(sh gemmShape, seed uint64, trials int, reqID string) jobResult {
	res := jobResult{shape: sh, seed: seed}
	fail := func(format string, a ...any) jobResult {
		res.problem = fmt.Sprintf("job %s: ", sh) + fmt.Sprintf(format, a...)
		return res
	}
	body, err := json.Marshal(service.Request{Op: "gemm", Shape: sh.String(), Scheduler: missSched,
		Trials: trials, Seed: seed, PlateauWindow: -1})
	if err != nil {
		return fail("%v", err)
	}
	req, err := http.NewRequest(http.MethodPost, e.base+"/v1/tune", bytes.NewReader(body))
	if err != nil {
		return fail("%v", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set(reqHeader, reqID)
	}
	start := time.Now()
	resp, err := e.writer.Do(req)
	if err != nil {
		return fail("%v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	accepted := time.Now()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return fail("POST /v1/tune: status %d: %v", resp.StatusCode, err)
	}
	var acc service.TuneAccepted
	if err := json.Unmarshal(raw, &acc); err != nil || acc.Job.ID == "" {
		return fail("bad 202 body: %v", err)
	}

	job, first, err := e.followJob(acc.Job.ID, reqID)
	if err != nil {
		return fail("%v", err)
	}
	res.firstMs = first.Sub(accepted).Seconds() * 1e3
	if job.State != service.StateDone || job.Outcome == nil {
		return fail("ended %q (%s)", job.State, job.Error)
	}
	out := job.Outcome
	res.trials, res.measured, res.execSec, res.searchSec = out.Trials, out.Measured, out.ExecSeconds, out.SearchSeconds

	status, raw, err := e.get(e.writer, "/v1/schedule?op=gemm&scheduler="+missSched+"&shape="+sh.String(), reqID)
	res.wallMs = time.Since(start).Seconds() * 1e3
	if err != nil || status != http.StatusOK {
		return fail("published key does not resolve: status %d: %v", status, err)
	}
	var sr service.ScheduleResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return fail("%v", err)
	}
	if sr.ExecSeconds != out.ExecSeconds {
		return fail("registry serves %g s, job reported %g s", sr.ExecSeconds, out.ExecSeconds)
	}
	sched, err := schedule.UnmarshalSteps(sketch.Generate(sh.job().sg), sr.Steps)
	if err != nil {
		return fail("stored steps do not re-apply: %v", err)
	}
	if err := sched.Validate(); err != nil {
		return fail("stored schedule invalid: %v", err)
	}
	if got := e.sim.Exec(sched); got != out.ExecSeconds {
		return fail("replayed best runs in %g s, job reported %g s", got, out.ExecSeconds)
	}
	return res
}

// followJob reads the job's SSE stream to its done frame and returns the
// finished job and the arrival time of the first frame.
func (e *serveEnv) followJob(id, reqID string) (service.Job, time.Time, error) {
	var job service.Job
	var first time.Time
	req, err := http.NewRequest(http.MethodGet, e.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return job, first, err
	}
	if reqID != "" {
		req.Header.Set(reqHeader, reqID)
	}
	resp, err := e.writer.Do(req)
	if err != nil {
		return job, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return job, first, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return job, first, fmt.Errorf("events stream ended without a done frame: %w", err)
		}
		if first.IsZero() {
			first = time.Now()
		}
		line = strings.TrimRight(line, "\n")
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
		} else if v, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			if err := json.Unmarshal([]byte(v), &job); err != nil {
				return job, first, fmt.Errorf("bad done frame: %w", err)
			}
			// Drain to EOF so the connection is reusable.
			io.Copy(io.Discard, rd) // the frame is already read
			return job, first, nil
		}
	}
}

// missShapes yields fresh GEMM shapes from the seed, never repeating within a
// run and never on the preload grid.
type missShapes struct {
	rng  *xrand.RNG
	seen map[gemmShape]bool
}

func newMissShapes(seed uint64) *missShapes {
	return &missShapes{rng: xrand.New(xrand.Hash64(seed, 0x6d697373)), seen: map[gemmShape]bool{}}
}

func (m *missShapes) next() gemmShape {
	for {
		sh := gemmShape{32*(2+m.rng.Intn(22)) + 16, 32*(2+m.rng.Intn(22)) + 16, 32*(2+m.rng.Intn(22)) + 16}
		if !m.seen[sh] {
			m.seen[sh] = true
			return sh
		}
	}
}

// readerStats is what the open-loop reader measured.
type readerStats struct {
	latMs  []float64 // per request, from when it was due or — if the generator itself woke late — sent
	lateMs []float64 // generator lateness: send time minus the later of due time and previous completion
	sent   []time.Time
	done   []time.Time
	// The reader runs beside the writer, so it counts its own operations and
	// the caller folds them into the result once it has stopped.
	attempted int
	problems  []string
}

// fold adds the reader's operation counts to the run's.
func (st *readerStats) fold(r *runResult) {
	r.Attempted += st.attempted
	for _, p := range st.problems {
		r.fail(p)
	}
}

// runReader is the open-loop hit load: one connection, requests due every
// 1/readRate seconds regardless of how the previous one fared. 90% go to a
// 64-key hot set and 10% uniformly over all keys, so most of the uniform
// traffic lands on shards outside the 64-shard cache. A request the server's
// own slowness delayed is timed from when it was due; a request the
// generator's timer woke late for is timed from when it was sent, and that
// lateness is reported on its own.
func (e *serveEnv) runReader(seed uint64, stop <-chan struct{}, traced bool) readerStats {
	var st readerStats
	rng := xrand.New(xrand.Hash64(seed, 0x72656164))
	hot := rng.Perm(len(e.pre.shapes))[:hotKeys]
	interval := time.Duration(float64(time.Second) / readRate)
	start := time.Now()
	var prevDone time.Time
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		select {
		case <-stop:
			return st
		default:
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		key := rng.Intn(len(e.pre.shapes))
		if rng.Float64() < hotShare {
			key = hot[rng.Intn(hotKeys)]
		}
		reqID := ""
		if traced {
			reqID = fmt.Sprintf("r%d", i)
		}
		sent, done, problem := e.hit(e.reader, key, reqID)
		st.attempted++
		if problem != "" {
			st.problems = append(st.problems, problem)
		}
		from, ready := due, due
		if prevDone.After(ready) {
			ready = prevDone
		}
		if !prevDone.After(due) {
			from = sent // the server was idle at the due time: any delay is the generator's
		}
		st.latMs = append(st.latMs, done.Sub(from).Seconds()*1e3)
		st.lateMs = append(st.lateMs, sent.Sub(ready).Seconds()*1e3)
		if traced {
			st.sent, st.done = append(st.sent, sent), append(st.done, done)
		}
		prevDone = done
	}
}

// servePass runs reader and writer side by side while more(jobs submitted)
// holds, and appends every finished job to the ledger. With ht set, requests
// carry ids and client spans are recorded.
func servePass(cfg runConfig, r *runResult, env *serveEnv, more func(submitted int) bool, ht *httpTrace) ([]jobResult, readerStats) {
	stop := make(chan struct{})
	readerDone := make(chan readerStats, 1)
	go func() { readerDone <- env.runReader(cfg.seed, stop, ht != nil) }()
	shapes := newMissShapes(cfg.seed)
	var out []jobResult
	for i := 0; more(i); i++ {
		req := ""
		if ht != nil {
			req = fmt.Sprintf("j%d", i)
		}
		start := time.Now()
		j := env.runJob(shapes.next(), sessionSeed(cfg.seed, i, 0), scaled(cfg, missTrials, 32), req)
		r.op(j.problem)
		if j.problem != "" {
			continue
		}
		if ht != nil {
			ht.client("client.job", req, i, start, time.Now())
		}
		out = append(out, j)
		r.Ledger = append(r.Ledger, ledgerEntry{ID: "job/" + j.shape.String(), Seed: j.seed, Trials: j.trials,
			BestExecMs: j.execSec * 1e3, SimSearchS: j.searchSec})
	}
	close(stop)
	rs := <-readerDone
	rs.fold(r)
	return out, rs
}

func runServeMixed(cfg runConfig) *runResult {
	r := newResult("serve-mixed", cfg)
	plat := hardware.ByName(harl.CPU().Name())
	inputs, err := scratchDir(cfg, "serve-inputs")
	if err != nil {
		r.op("inputs: " + err.Error())
		return r
	}
	defer os.RemoveAll(inputs)
	registries := 1
	if cfg.trace {
		registries = 2
	}
	pre, err := genPreload(cfg, inputs, plat, registries)
	if err != nil {
		r.op("inputs: " + err.Error())
		return r
	}
	if cfg.trace {
		return runServeTraced(cfg, r, pre, plat)
	}
	r.CalibMs[0] = calibrate(cfg)
	env, ok := timedSetup(scaled(cfg, 7, 1), r, func(rep int) (*serveEnv, error) { return setupServe(cfg, pre, plat, wrapHandlers{}, 0, rep) }, (*serveEnv).close)
	if !ok {
		return r
	}
	defer env.close()

	pinned := scaled(cfg, 400, 3)
	start := time.Now()
	jobs, rs := servePass(cfg, r, env, func(done int) bool { return done < pinned || time.Since(start).Seconds() < cfg.seconds }, nil)
	if len(jobs) == 0 || len(rs.latMs) == 0 {
		return r
	}

	r.Pinned = min(pinned, len(jobs))
	var wallS, execMs, simS []float64
	measured := int64(0)
	for i, j := range jobs {
		wallS = append(wallS, j.wallMs/1e3)
		measured += int64(j.measured)
		if i < r.Pinned {
			execMs = append(execMs, j.execSec*1e3)
			simS = append(simS, j.searchSec)
		}
	}
	fs := env.fl.Stats()
	if fs.Fallbacks != 0 {
		r.fail(fmt.Sprintf("fleet fell back to in-process measurement %d times", fs.Fallbacks))
	}
	if got := fs.TrialsDispatched - env.warmTrials; got != measured {
		r.fail(fmt.Sprintf("fleet dispatched %d trials, jobs measured %d", got, measured))
	}
	r.WallS = wallS
	r.Metrics["session_s_p25"] = quantile(wallS, 0.25)
	r.Metrics["sim_search_s_p50"] = median(simS)
	r.Metrics["best_exec_gmean_ms"] = gmean(execMs)
	r.Metrics["peak_rss_mb"] = peakRSSMB()
	r.CalibMs[1] = calibrate(cfg)
	return r
}
