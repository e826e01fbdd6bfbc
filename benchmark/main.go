// Command benchmark is the repository's performance ledger: four workloads
// that drive the tuner the way its users do — through the public harl API and
// over real loopback HTTP — and report what those users wait for (end-to-end
// metrics) and where that time goes (per-layer metrics from a traced pass).
// Nothing outside this directory knows the benchmark exists: every layer is
// measured from outside, through exported functions and the seams that are
// already interfaces. See README.md in this directory.
//
// One workload, one process (the contract the driver uses):
//
//	go run ./benchmark --workload op-gemm-harl --seed 1 --seconds 20 --trace 0
//
// A full set (every workload untraced, then traced, one child process each):
//
//	go run ./benchmark -seed 1 [-out DIR]
//
// Two result sets against each other:
//
//	go run ./benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// metricSpec names one reported number. Bound is the share of the previous
// median by which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them (README.md says what each means on each workload).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"session_s_p25", "s", "lower", 0.25},
	{"sim_search_s_p50", "s", "lower", 0.05},
	{"best_exec_gmean_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer is the traced pass's split. Values ending _s/_ms/_us/_ns are busy
// time, .calls/.rows/.bytes/.batches/.trials are counts, probe.* are
// fixed-count replays of one layer at the workload's real dimensions. A layer
// a workload never enters reports 0.
var perLayer = []metricSpec{
	{"search.round.calls", "count", "lower", 0},
	{"search.round.total_s", "s", "lower", 0},
	{"search.round.self_s", "s", "lower", 0},
	{"search.wave.calls", "count", "lower", 0},
	{"search.wave.total_s", "s", "lower", 0},
	{"search.wave.width_mean", "count", "higher", 0},
	{"search.pool.scaling_w2", "x", "higher", 0},
	{"probe.search.score_batch_512_us", "us", "lower", 0},
	{"probe.search.measure_batch_16_us", "us", "lower", 0},

	{"rl.train.calls", "count", "lower", 0},
	{"probe.rl.act_us", "us", "lower", 0},
	{"probe.rl.step_us", "us", "lower", 0},
	{"probe.rl.train_ms", "ms", "lower", 0},
	{"probe.rl.step_allocs", "count", "lower", 0},

	{"costmodel.refit.calls", "count", "lower", 0},
	{"costmodel.refit.total_s", "s", "lower", 0},
	{"costmodel.predict.calls", "count", "lower", 0},
	{"costmodel.predict.rows", "count", "lower", 0},
	{"costmodel.predict.total_s", "s", "lower", 0},
	{"costmodel.add.calls", "count", "lower", 0},
	{"probe.costmodel.refit_512_ms", "ms", "lower", 0},
	{"probe.costmodel.refit_2048_ms", "ms", "lower", 0},
	{"probe.costmodel.predict_batch_512_us", "us", "lower", 0},
	{"probe.costmodel.checkpoint_load_ms", "ms", "lower", 0},

	{"probe.sketch.generate_us", "us", "lower", 0},
	{"probe.schedule.apply_ns", "ns", "lower", 0},
	{"probe.schedule.features_cold_ns", "ns", "lower", 0},
	{"probe.schedule.marshal_ns", "ns", "lower", 0},
	{"probe.schedule.unmarshal_us", "us", "lower", 0},
	{"probe.bandit.select_ns", "ns", "lower", 0},

	{"hardware.measure.batches", "count", "lower", 0},
	{"hardware.measure.trials", "count", "lower", 0},
	{"hardware.measure.total_s", "s", "lower", 0},
	{"probe.hardware.exec_ns", "ns", "lower", 0},

	{"tunelog.append.calls", "count", "lower", 0},
	{"tunelog.append.total_s", "s", "lower", 0},
	{"tunelog.journal.bytes", "bytes", "lower", 0},
	{"probe.tunelog.append_us", "us", "lower", 0},
	{"probe.tunelog.load_10k_ms", "ms", "lower", 0},
	{"probe.tunelog.parse_line_ns", "ns", "lower", 0},

	{"probe.registry.sharded.open_2048_ms", "ms", "lower", 0},
	{"probe.registry.sharded.resolve_hot_us", "us", "lower", 0},
	{"probe.registry.sharded.resolve_cold_us", "us", "lower", 0},
	{"probe.registry.sharded.publish_us", "us", "lower", 0},
	{"probe.registry.sharded.publish_batch64_us_per_rec", "us", "lower", 0},
	{"probe.registry.single.open_2048_ms", "ms", "lower", 0},
	{"probe.registry.single.resolve_hot_us", "us", "lower", 0},
	{"probe.registry.single.resolve_cold_us", "us", "lower", 0},
	{"probe.registry.single.publish_us", "us", "lower", 0},
	{"probe.registry.single.publish_batch64_us_per_rec", "us", "lower", 0},
	{"registry.appends", "count", "lower", 0},
	{"registry.lock_acquisitions", "count", "lower", 0},
	{"registry.batches_flushed", "count", "lower", 0},
	{"registry.resident_shards", "count", "lower", 0},

	{"fleet.rpc.batches", "count", "lower", 0},
	{"fleet.rpc.trials", "count", "lower", 0},
	{"fleet.rpc.total_s", "s", "lower", 0},
	{"fleet.rpc.p50_ms", "ms", "lower", 0},
	{"fleet.rpc.request_bytes_mean", "bytes", "lower", 0},
	{"fleet.worker.handler_p50_ms", "ms", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"fleet.fallbacks", "count", "lower", 0},

	{"service.handler.schedule_us", "us", "lower", 0},
	{"service.handler.tune_us", "us", "lower", 0},
	{"service.handler.job_us", "us", "lower", 0},
	{"service.transport.hit_us", "us", "lower", 0},
	{"service.job.first_event_ms", "ms", "lower", 0},
	{"service.hit.closed_loop_rps", "1/s", "higher", 0},
	{"service.hit_ms_p50", "ms", "lower", 0},
	{"service.hit_ms_p99", "ms", "lower", 0},
	{"service.miss_job_ms_p95", "ms", "lower", 0},
	{"probe.wire.encode_hit_us", "us", "lower", 0},
	{"probe.harl.registry_lookup_us", "us", "lower", 0},

	{"harl.session.overhead_s", "s", "lower", 0},
	{"harl.session.alloc_mb", "MB", "lower", 0},
	{"harl.trials_per_s", "1/s", "higher", 0},
	{"harl.hit_ms_p50", "ms", "lower", 0},

	{"target.sim_search_s_p50", "s", "lower", 0},
	{"target.wall_s_p50", "s", "lower", 0},
	{"target.reached_share", "share", "higher", 0},

	{"bench.calib_ms", "ms", "lower", 0},
	{"bench.trace.overhead_pct", "%", "lower", 0},
	{"bench.loadgen.late_ms_p99", "ms", "lower", 0},
}

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	Name string
	Why  string
	run  func(cfg runConfig) *runResult
}

var workloads = []workloadSpec{
	{"op-gemm-harl", "the paper's operator-tuning path: PPO act/train (rl, nn) does nearly all the work of a GEMM-1024 HARL session, cost model and measurement almost none", runGemmHarl},
	{"net-bert-harl", "the paper's end-to-end path (Figs. 8/9): the same rl layer driven through MultiTuner waves, Eq.-3 allocation, a 2-worker pool and ten per-subgraph cost models", runBertHarl},
	{"op-mix-ansor", "the same search/schedule/hardware layers with no RL at all: costmodel.Refit is ~60% of an Ansor session, so a cost-model gain shows here and a PPO gain must show no change", runMixAnsor},
	{"serve-mixed", "the daemon path over loopback HTTP: open-loop GET /v1/schedule hits (90% hot keys, 10% cold shards) beside closed-loop POST /v1/tune miss->job->publish, fleet-measured, on one sharded registry", runServeMixed},
}

// runConfig is everything a workload run depends on.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	toy     bool // smoke-test scale: one session, a handful of trials
}

// ledgerEntry is the determinism record of one session or job: numbers that
// must repeat exactly between two runs of the same code with the same seed.
type ledgerEntry struct {
	ID            string  `json:"id"`
	Seed          uint64  `json:"seed"`
	JournalSHA256 string  `json:"journal_sha256,omitempty"`
	Trials        int     `json:"trials"`
	Refits        int     `json:"refits,omitempty"`
	BestExecMs    float64 `json:"best_exec_ms"`
	SimSearchS    float64 `json:"sim_search_s"`
}

// runResult is one workload run: the metrics it emits, how many operations it
// attempted and failed, and the determinism ledger.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Pinned is how many leading ledger entries feed the deterministic
	// aggregates (best_exec_gmean_ms, sim_search_s_p50); the timed loop always
	// completes at least that many, so they compare exactly across runs.
	Pinned  int           `json:"pinned"`
	Ledger  []ledgerEntry `json:"ledger,omitempty"`
	CalibMs [2]float64    `json:"calib_ms"`
	// WallS is the wall time of every timed session, in the order they ran: the
	// raw samples behind session_s_p25, kept to tell a slow host from slow code.
	WallS []float64 `json:"wall_s,omitempty"`
}

func newResult(name string, cfg runConfig) *runResult {
	return &runResult{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Metrics: make(map[string]float64)}
}

// op counts one attempted operation; a non-empty problem marks it failed.
func (r *runResult) op(problem string) {
	r.Attempted++
	if problem != "" {
		r.fail(problem)
	}
}

func (r *runResult) fail(problem string) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, problem)
	}
}

// specsFor returns the metric list a run of the given mode must emit.
func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// contractLine renders the driver's result object: exactly the keys correct,
// attempted, failed and metrics, with every metric of the run's mode.
func contractLine(r *runResult) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, s := range specsFor(r.Trace) {
		v, ok := r.Metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not emit %s", r.Workload, s.Name)
		}
		out.Metrics[s.Name] = mv{v, s.Unit}
	}
	return json.Marshal(out)
}

// printMetrics writes one "workload metric value unit" line per metric.
func printMetrics(r *runResult) {
	for _, s := range specsFor(r.Trace) {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, s.Name, r.Metrics[s.Name], s.Unit)
	}
	for _, f := range r.Failures {
		fmt.Printf("%s FAILED %s\n", r.Workload, f)
	}
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: a full set, one child process per workload)")
		seed     = flag.Uint64("seed", 1, "workload seed: session seeds, miss shapes and key-access sequences all derive from it")
		seconds  = flag.Float64("seconds", 20, "how long the timed phase measures")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
		out      = flag.String("out", ".bench_out", "directory for result files, traces and scratch data (inside the checkout)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: -compare A.json B.json")
		pin      = flag.Bool("pin-targets", false, "regenerate targets.json (never in a change that claims a gain)")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	case *pin:
		if err := pinTargets(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	case *workload != "":
		os.Exit(runOne(*workload, runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, outDir: *out}))
	default:
		os.Exit(runSet(*seed, *seconds, *out))
	}
}

// runOne runs a single workload in this process and prints its metrics, ending
// with the driver's one-line JSON result.
func runOne(name string, cfg runConfig) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	r := w.run(cfg)
	if err := writeJSON(resultPath(cfg.outDir, name, cfg.trace), r); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printMetrics(r)
	line, err := contractLine(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if r.Failed > 0 {
		return 1
	}
	return 0
}

func resultPath(outDir, workload string, trace bool) string {
	mode := "e2e"
	if trace {
		mode = "trace"
	}
	return filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", workload, mode))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeJSONCompact is writeJSON without indentation, for large files.
func writeJSONCompact(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultSet is a full set of runs: what -compare reads.
type resultSet struct {
	Seed      uint64       `json:"seed"`
	Seconds   float64      `json:"seconds"`
	GoVersion string       `json:"go_version"`
	NumCPU    int          `json:"num_cpu"`
	Runs      []*runResult `json:"runs"`
}

// runSet runs every workload untraced and then traced, each in a child
// process of its own so peak RSS and GC state never leak between workloads,
// and writes the combined set to <out>/results-seed<N>.json.
func runSet(seed uint64, seconds float64, outDir string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	set := resultSet{Seed: seed, Seconds: seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	code := 0
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			t := "0"
			if trace {
				t = "1"
			}
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", t, "-out", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: workload %s (trace %s): %v\n", w.Name, t, err)
				code = 1
			}
			var r runResult
			data, err := os.ReadFile(resultPath(outDir, w.Name, trace))
			if err == nil {
				err = json.Unmarshal(data, &r)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: no result for %s (trace %s): %v\n", w.Name, t, err)
				code = 1
				continue
			}
			set.Runs = append(set.Runs, &r)
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("results-seed%d.json", seed))
	if err := writeJSON(path, set); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println("wrote", path)
	return code
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scratchDir makes a fresh scratch directory under the output directory; the
// benchmark never writes outside its checkout.
func scratchDir(cfg runConfig, name string) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.outDir, "tmp-"+name+"-")
}
