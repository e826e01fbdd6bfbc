package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"harl/internal/search"
	"harl/internal/wire"
)

// Config tunes the coordinator-side pool. The zero value is usable; every
// field has a production default.
type Config struct {
	// Timeout bounds one measure-batch RPC, dial to last byte.
	Timeout time.Duration
	// Retries is how many times a failed batch is re-dispatched (to the next
	// healthy worker in rotation) before the caller falls back to in-process
	// measurement. 0 selects the default; negative means no retries.
	Retries int
	// BackoffBase is the sleep before the first retry; it doubles per attempt.
	BackoffBase time.Duration
	// HealthInterval is the period of the background health-check loop.
	HealthInterval time.Duration
	// ProbeTimeout bounds one /healthz probe. It is deliberately independent
	// of HealthInterval: a fast poll period must not impose a deadline a
	// healthy-but-busy worker (or a loaded single-core coordinator) misses,
	// since consecutive probe misses eject the worker from rotation.
	ProbeTimeout time.Duration
	// EjectAfter is the number of consecutive failures (dispatch or probe)
	// after which a worker is ejected from rotation. A later successful probe
	// readmits it.
	EjectAfter int
	// Concurrency caps in-flight batches per worker.
	Concurrency int
	// Client is the HTTP client for both dispatch and health probes; nil uses
	// a private default.
	Client *http.Client
}

const (
	defaultTimeout        = 30 * time.Second
	defaultRetries        = 2
	defaultBackoffBase    = 100 * time.Millisecond
	defaultHealthInterval = 2 * time.Second
	defaultProbeTimeout   = 2 * time.Second
	defaultEjectAfter     = 3
	defaultConcurrency    = 4
)

func (c Config) withDefaults() Config {
	if c.Timeout <= 0 {
		c.Timeout = defaultTimeout
	}
	if c.Retries == 0 {
		c.Retries = defaultRetries
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = defaultBackoffBase
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = defaultHealthInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = defaultProbeTimeout
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = defaultEjectAfter
	}
	if c.Concurrency <= 0 {
		c.Concurrency = defaultConcurrency
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Stats is a snapshot of the pool's counters — the source of the
// harl_fleet_* series at /metrics.
type Stats struct {
	Workers           int   // registered workers
	Healthy           int   // currently in rotation
	BatchesDispatched int64 // measure batches completed remotely
	TrialsDispatched  int64 // individual trials inside those batches
	Retries           int64 // batch re-dispatch attempts
	Ejections         int64 // workers removed from rotation
	Readmissions      int64 // ejected workers probed back in
	Fallbacks         int64 // batches recovered by in-process measurement
}

// worker is the pool's view of one harl-worker endpoint. All fields are
// guarded by the pool mutex.
type worker struct {
	endpoint string
	// targets is the platform set the worker reported from /healthz; empty
	// means it serves every platform. nil means no probe has succeeded yet.
	targets  map[string]bool
	healthy  bool
	fails    int // consecutive failures (probe or dispatch)
	inflight int
	batches  int64
}

func (w *worker) serves(target string) bool {
	if len(w.targets) == 0 {
		return true
	}
	return w.targets[target]
}

// Pool is the coordinator side of the fleet: it owns the worker list, leases
// workers to measure batches (round-robin over healthy workers that serve the
// batch's target platform, bounded by per-worker concurrency), and runs the
// health-check loop that ejects failing workers and readmits recovered ones.
//
// A Pool with zero healthy workers is not an error condition: EvalBatch
// callers fall back to in-process measurement, so fleet loss degrades
// throughput, never correctness.
type Pool struct {
	cfg Config

	mu      sync.Mutex
	workers []*worker
	rr      int // round-robin cursor
	stats   Stats

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewPool builds a pool over the worker endpoints ("host:port" or full URLs),
// probes each once synchronously so callers see an accurate initial health
// picture, and starts the background health loop. Close releases it.
func NewPool(endpoints []string, cfg Config) (*Pool, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("fleet: no worker endpoints")
	}
	p := &Pool{
		cfg:  cfg.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	seen := make(map[string]bool)
	for _, e := range endpoints {
		e = strings.TrimRight(strings.TrimSpace(e), "/")
		if e == "" {
			continue
		}
		if !strings.Contains(e, "://") {
			e = "http://" + e
		}
		if seen[e] {
			continue
		}
		seen[e] = true
		p.workers = append(p.workers, &worker{endpoint: e})
	}
	if len(p.workers) == 0 {
		return nil, fmt.Errorf("fleet: no worker endpoints")
	}
	p.probeAll()
	go p.healthLoop()
	return p, nil
}

// Close stops the health loop. In-flight batches are unaffected.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Workers = len(p.workers)
	for _, w := range p.workers {
		if w.healthy {
			s.Healthy++
		}
	}
	return s
}

// EvaluatorFor returns a remote evaluator for the task, or nil when no
// registered worker serves the task's platform — in which case the task keeps
// measuring in-process. The nil must be a true interface nil (not a typed nil
// pointer), since search.Task checks `Remote == nil`.
func (p *Pool) EvaluatorFor(t *search.Task) search.BatchEvaluator {
	target := t.Plat.Name
	p.mu.Lock()
	served := false
	for _, w := range p.workers {
		// Unprobed workers (targets == nil) count: they may come up later,
		// and an unserved batch just falls back in the meantime.
		if w.targets == nil || w.serves(target) {
			served = true
			break
		}
	}
	p.mu.Unlock()
	if !served {
		return nil
	}
	return &RemoteMeasurer{
		pool:      p,
		target:    target,
		workload:  t.Graph.Fingerprint(),
		noiseSeed: t.Meas.NoiseSeed(),
		spec:      specOf(t.Graph),
	}
}

// lease picks the next healthy worker serving target with spare concurrency,
// claiming one in-flight slot. ok is false when no worker qualifies right now
// (pool empty, all ejected, all saturated, or none serves the target).
func (p *Pool) lease(target string) (w *worker, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.workers)
	for i := 0; i < n; i++ {
		cand := p.workers[(p.rr+i)%n]
		if cand.healthy && cand.inflight < p.cfg.Concurrency && cand.serves(target) {
			p.rr = (p.rr + i + 1) % n
			cand.inflight++
			return cand, true
		}
	}
	return nil, false
}

// release returns a lease, folding the dispatch outcome into the worker's
// health accounting: success clears the failure streak, failure counts
// toward ejection.
func (p *Pool) release(w *worker, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.inflight--
	if err == nil {
		w.fails = 0
		w.batches++
		return
	}
	p.noteFailureLocked(w)
}

func (p *Pool) noteFailureLocked(w *worker) {
	w.fails++
	if w.healthy && w.fails >= p.cfg.EjectAfter {
		w.healthy = false
		p.stats.Ejections++
	}
}

func (p *Pool) countBatch(trials int) {
	p.mu.Lock()
	p.stats.BatchesDispatched++
	p.stats.TrialsDispatched += int64(trials)
	p.mu.Unlock()
}

func (p *Pool) countRetry() {
	p.mu.Lock()
	p.stats.Retries++
	p.mu.Unlock()
}

func (p *Pool) countFallback() {
	p.mu.Lock()
	p.stats.Fallbacks++
	p.mu.Unlock()
}

// healthLoop probes every worker each HealthInterval. Probe success readmits
// an ejected worker (and refreshes its served-target set); probe failure
// counts toward ejection exactly like a dispatch failure.
func (p *Pool) healthLoop() {
	defer close(p.done)
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

func (p *Pool) probeAll() {
	p.mu.Lock()
	workers := make([]*worker, len(p.workers))
	copy(workers, p.workers)
	p.mu.Unlock()

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			hr, err := p.probe(w.endpoint)
			p.mu.Lock()
			defer p.mu.Unlock()
			if err != nil {
				p.noteFailureLocked(w)
				return
			}
			targets := make(map[string]bool, len(hr.Targets))
			for _, t := range hr.Targets {
				targets[t] = true
			}
			// A worker that had probed successfully before and is unhealthy
			// now was ejected; this probe readmits it. A first-ever probe is
			// registration, not readmission.
			firstProbe := w.targets == nil
			w.targets = targets
			w.fails = 0
			if !w.healthy {
				if !firstProbe {
					p.stats.Readmissions++
				}
				w.healthy = true
			}
		}(w)
	}
	wg.Wait()
}

func (p *Pool) probe(endpoint string) (*HealthResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, wire.DecodeError(resp)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return nil, fmt.Errorf("fleet: bad health body from %s: %w", endpoint, err)
	}
	return &hr, nil
}
