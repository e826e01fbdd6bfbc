package harl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestTuneOperatorHappyPath(t *testing.T) {
	w := GEMM(256, 256, 256, 1)
	res, err := TuneOperator(w, CPU(), Options{Scheduler: "random", Trials: 48})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS <= 0 || res.ExecSeconds <= 0 || res.Trials < 48 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.BestSchedule == "" {
		t.Fatal("missing best schedule description")
	}
	if len(res.BestLog) != res.Trials {
		t.Fatalf("best log %d entries for %d trials", len(res.BestLog), res.Trials)
	}
}

func TestTuneOperatorDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Scheduler != "harl" || o.Trials != 320 || o.MeasureK != 16 || o.Seed != 1 {
		t.Fatalf("defaults %+v", o)
	}
}

func TestTuneOperatorUnknownScheduler(t *testing.T) {
	// "autotvm" was a preset once; it is as unknown as any other name now.
	for _, name := range []string{"nope", "autotvm"} {
		if _, err := TuneOperator(GEMM(64, 64, 64, 1), CPU(), Options{Scheduler: name, Trials: 16}); err == nil {
			t.Fatalf("scheduler %q: expected error", name)
		}
		// The wording harl-tune and /v1/tune answer with.
		_, err := SchedulerByName(name)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown scheduler %q (want harl, ", name)) {
			t.Fatalf("SchedulerByName(%q) = %v", name, err)
		}
	}
}

// TestExhaustedSpaceTerminates: a workload whose whole schedule space is
// smaller than the trial budget ends when the space is measured out — under
// every preset, for the public operator entry — instead of spinning on a
// budget it can never spend: the stalled-wave exit of the one driver loop
// covers the one-task set an operator run is.
func TestExhaustedSpaceTerminates(t *testing.T) {
	oneAxis, err := CustomOp("two", []CustomAxis{{Name: "i", Extent: 2}}, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Workload{GEMM(1, 1, 1, 1), oneAxis} {
		for _, name := range Schedulers() {
			t.Run(w.Name()+"/"+name, func(t *testing.T) {
				t.Parallel()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				res, err := TuneOperatorContext(ctx, w, CPU(), Options{Scheduler: name, Trials: 320})
				if err != nil {
					t.Fatal(err)
				}
				if res.Cancelled || res.Trials >= 320 || res.Trials == 0 {
					t.Fatalf("cancelled=%v after %d of 320 trials: the run did not end on its exhausted space", res.Cancelled, res.Trials)
				}
			})
		}
	}
}

func TestTuneOperatorReproducible(t *testing.T) {
	w := GEMM(256, 256, 256, 1)
	o := Options{Scheduler: "ansor", Trials: 48, Seed: 9}
	a, err := TuneOperator(w, CPU(), o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TuneOperator(w, CPU(), o)
	if err != nil {
		t.Fatal(err)
	}
	if a.ExecSeconds != b.ExecSeconds || a.SearchSeconds != b.SearchSeconds {
		t.Fatal("same options diverged")
	}
}

func TestTargets(t *testing.T) {
	gpu, err := TargetByName("gpu")
	if err != nil {
		t.Fatal(err)
	}
	if CPU().Name() == gpu.Name() {
		t.Fatal("targets must differ")
	}
	if _, err := TargetByName("cpu"); err != nil {
		t.Fatal(err)
	}
	if _, err := TargetByName("quantum"); err == nil {
		t.Fatal("unknown target must error")
	}
}

func TestWorkloadConstructors(t *testing.T) {
	for _, w := range []Workload{
		GEMM(128, 128, 128, 1),
		Conv1D(256, 64, 128, 3, 2, 1, 1),
		Conv2D(56, 56, 64, 64, 1, 1, 0, 1),
		Conv3D(16, 14, 14, 256, 256, 3, 1, 1, 1),
		ConvT2D(4, 4, 512, 256, 4, 2, 1, 1),
	} {
		if w.FLOPs() <= 0 {
			t.Fatalf("%s: non-positive FLOPs", w.Name())
		}
		if w.Describe() == "" {
			t.Fatalf("%s: empty description", w.Name())
		}
	}
}

func TestTableSixWorkloads(t *testing.T) {
	ws := TableSixWorkloads("GEMM-L", 16)
	if len(ws) != 4 {
		t.Fatalf("got %d workloads", len(ws))
	}
}

func TestCustomOp(t *testing.T) {
	w, err := CustomOp("contraction", []CustomAxis{
		{Name: "i", Extent: 64},
		{Name: "j", Extent: 64},
		{Name: "k", Extent: 32, Reduce: true},
	}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if w.FLOPs() != 2*64*64*32 {
		t.Fatalf("custom flops %g", w.FLOPs())
	}
	res, err := TuneOperator(w, CPU(), Options{Scheduler: "random", Trials: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFLOPS <= 0 {
		t.Fatal("custom op failed to tune")
	}
	if _, err := CustomOp("bad", []CustomAxis{{Name: "k", Extent: 8, Reduce: true}}, 1, false); err == nil {
		t.Fatal("spatial-free custom op must error")
	}
}

func TestTuneNetwork(t *testing.T) {
	res, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "random", Trials: 330})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.EstimatedSeconds, 1) || res.EstimatedSeconds <= 0 {
		t.Fatalf("estimated %g", res.EstimatedSeconds)
	}
	if res.MeasuredSeconds <= res.EstimatedSeconds {
		t.Fatal("measured must exceed estimated (communication overhead)")
	}
	if len(res.Breakdown) != 10 {
		t.Fatalf("BERT breakdown rows %d", len(res.Breakdown))
	}
	sum := 0.0
	for _, b := range res.Breakdown {
		sum += b.Contribution
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("contributions sum %f", sum)
	}
	if _, err := TuneNetwork("alexnet", 1, CPU(), Options{}); err == nil {
		t.Fatal("unknown network must error")
	}
}

func TestSchedulersList(t *testing.T) {
	found := map[string]bool{}
	for _, s := range Schedulers() {
		found[s] = true
	}
	for _, want := range []string{"harl", "ansor", "flextensor", "hierarchical-rl"} {
		if !found[want] {
			t.Fatalf("missing scheduler %q", want)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if err := RunExperiment("fig99", ExperimentConfig{}, io.Discard); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunExperimentTable1(t *testing.T) {
	var sb strings.Builder
	if err := RunExperiment("tab1", ExperimentConfig{}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "harl") {
		t.Fatal("table 1 output missing")
	}
}

func TestRunExperimentFig1b(t *testing.T) {
	var sb strings.Builder
	cfg := ExperimentConfig{OperatorBudget: 64}
	if err := RunExperiment("fig1b", cfg, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "improvement ratio") {
		t.Fatalf("fig1b output: %q", sb.String())
	}
}

func TestExperimentsListComplete(t *testing.T) {
	// Every id advertised must dispatch (checked against tab1's cheap path
	// plus the error path; heavier ids are covered by the bench harness).
	ids := Experiments()
	if len(ids) != 14 {
		t.Fatalf("experiment ids %d want 14 (every paper table+figure)", len(ids))
	}
}

func TestExperimentConfigResolve(t *testing.T) {
	c := ExperimentConfig{OperatorBudget: 99, Batches: []int{4}}.resolve()
	if c.OperatorBudget != 99 || c.Batches[0] != 4 {
		t.Fatalf("resolve override broken: %+v", c)
	}
	full := ExperimentConfig{Full: true}.resolve()
	if full.OperatorBudget != 1000 || full.NetworkBudgetScale != 1.0 {
		t.Fatalf("full preset broken: %+v", full)
	}
}

// Worker count must never change TuneOperator results: trial evaluation and
// cost-model scoring are order-independent, and all bookkeeping commits in
// input order.
func TestTuneOperatorWorkerCountInvariant(t *testing.T) {
	w := GEMM(256, 256, 256, 1)
	base := Options{Scheduler: "harl", Trials: 64, Seed: 3}
	serial, err := TuneOperator(w, CPU(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		o := base
		o.Workers = workers
		res, err := TuneOperator(w, CPU(), o)
		if err != nil {
			t.Fatal(err)
		}
		if res.ExecSeconds != serial.ExecSeconds || res.SearchSeconds != serial.SearchSeconds ||
			res.BestSchedule != serial.BestSchedule || res.Trials != serial.Trials {
			t.Fatalf("workers=%d diverged from serial: %+v vs %+v", workers, res, serial)
		}
		for i, v := range serial.BestLog {
			if res.BestLog[i] != v {
				t.Fatalf("workers=%d: best log entry %d diverged", workers, i)
			}
		}
	}
}

// The network scheduler's determinism contract at the public API: same seed,
// identical outcome for every Workers value — 0 means 1, not another search.
func TestTuneNetworkWorkerCountInvariant(t *testing.T) {
	run := func(workers int) NetworkResult {
		res, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "harl", Trials: 330, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(0)
	for _, workers := range []int{1, 4} {
		res := run(workers)
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=0 vs %d diverged:\n%+v\n%+v", workers, base, res)
		}
	}
}

func TestTuneNetworkParallelResultShape(t *testing.T) {
	res, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "random", Trials: 330, Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.EstimatedSeconds, 1) || res.EstimatedSeconds <= 0 {
		t.Fatalf("estimated %g", res.EstimatedSeconds)
	}
	if res.MeasuredSeconds <= res.EstimatedSeconds {
		t.Fatal("measured must exceed estimated (communication overhead)")
	}
	if len(res.Breakdown) != 10 {
		t.Fatalf("BERT breakdown rows %d", len(res.Breakdown))
	}
	sum := 0.0
	for _, b := range res.Breakdown {
		sum += b.Contribution
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("contributions sum %f", sum)
	}
	if res.Trials < 330 {
		t.Fatalf("budget not exhausted: %d", res.Trials)
	}
	if _, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "nope", Workers: 2}); err == nil {
		t.Fatal("unknown scheduler must error")
	}
}

func TestRecordLogAndResume(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "tune.jsonl")
	w := GEMM(128, 128, 128, 1)
	o := Options{Scheduler: "harl", Trials: 48, Seed: 3, RecordLog: logPath}
	res1, err := TuneOperator(w, CPU(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res1.WarmStarted {
		t.Fatal("cold run must not report a warm start")
	}

	recs, err := LoadRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res1.Trials {
		t.Fatalf("%d records for %d trials", len(recs), res1.Trials)
	}
	for _, r := range recs {
		if r.Workload != w.Fingerprint() || r.SchemaVersion != 1 {
			t.Fatalf("record %+v", r)
		}
	}
	best, ok, err := BestRecord(logPath, w, CPU())
	if err != nil || !ok {
		t.Fatalf("best record missing (%v)", err)
	}
	if 1/best.ExecSeconds <= 0 {
		t.Fatalf("degenerate best %+v", best)
	}

	// Pure cache replay: a negative trial budget plus -resume recovers the
	// prior best exactly, measuring nothing.
	res2, err := TuneOperator(w, CPU(), Options{Scheduler: "harl", Trials: -1, Seed: 3, ResumeFrom: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.WarmStarted || res2.Trials != 0 {
		t.Fatalf("replay run: %+v", res2)
	}
	if res2.ExecSeconds != res1.ExecSeconds || res2.GFLOPS != res1.GFLOPS {
		t.Fatalf("replay diverged: %+v vs %+v", res2, res1)
	}
	if res2.BestSchedule != res1.BestSchedule {
		t.Fatalf("replay schedule %q want %q", res2.BestSchedule, res1.BestSchedule)
	}

	// Resuming while appending to the same file is allowed; the continued
	// run can only improve on the cached best.
	res3, err := TuneOperator(w, CPU(), Options{Scheduler: "harl", Trials: 32, Seed: 4, RecordLog: logPath, ResumeFrom: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if !res3.WarmStarted {
		t.Fatal("same-file resume must warm-start")
	}
	recs2, err := LoadRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != res1.Trials+res3.Trials {
		t.Fatalf("log grew to %d records, want %d", len(recs2), res1.Trials+res3.Trials)
	}
}

func TestRecordLogJournalsAreWorkerInvariant(t *testing.T) {
	dir := t.TempDir()
	run := func(workers int) []byte {
		path := filepath.Join(dir, fmt.Sprintf("w%d.jsonl", workers))
		_, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "harl", Trials: 330, Seed: 3, Workers: workers, RecordLog: path})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	j0 := run(0)
	if len(j0) == 0 {
		t.Fatal("journal empty")
	}
	for _, workers := range []int{1, 4} {
		if !bytes.Equal(j0, run(workers)) {
			t.Fatalf("TuneNetwork journals diverged between workers=0 and workers=%d", workers)
		}
	}
}

func TestTuneNetworkResume(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "net.jsonl")
	o := Options{Scheduler: "random", Trials: 330, Seed: 3, Workers: 2, RecordLog: logPath}
	if _, err := TuneNetwork("bert", 1, CPU(), o); err != nil {
		t.Fatal(err)
	}
	res, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "random", Trials: -1, Seed: 3, Workers: 2, ResumeFrom: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmStarted != 10 {
		t.Fatalf("warm-started %d of 10 BERT subgraphs", res.WarmStarted)
	}
	if math.IsInf(res.EstimatedSeconds, 1) || res.Trials != 0 {
		t.Fatalf("replay run: estimated=%g trials=%d", res.EstimatedSeconds, res.Trials)
	}
}

func TestTargetByNameErrorListsPlatforms(t *testing.T) {
	_, err := TargetByName("quantum")
	if err == nil {
		t.Fatal("unknown target must error")
	}
	for _, name := range Targets() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not mention %q", err, name)
		}
	}
	for _, name := range Targets() {
		if _, err := TargetByName(name); err != nil {
			t.Fatalf("listed target %q must resolve: %v", name, err)
		}
	}
}

func TestWriteBenchSummary(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteBenchSummary(dir, "tab1", ExperimentConfig{}, "row\n")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_tab1.json" {
		t.Fatalf("summary path %q", path)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got["experiment"] != "tab1" || got["output"] != "row\n" {
		t.Fatalf("summary %v", got)
	}
	if _, ok := got["duration_ms"]; ok {
		t.Fatal("summary carries a timing field; BENCH_*.json is an output pin, not a perf trace")
	}
}

func TestLoadRecordsMissingFile(t *testing.T) {
	if _, err := LoadRecords(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Fatal("missing log must error")
	}
	if _, _, err := BestRecord(filepath.Join(t.TempDir(), "absent.jsonl"), GEMM(8, 8, 8, 1), CPU()); err == nil {
		t.Fatal("missing log must error")
	}
}

func TestReplayCacheMissErrors(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.jsonl")
	if _, err := TuneOperator(GEMM(64, 64, 64, 1), CPU(), Options{Scheduler: "random", Trials: 16, RecordLog: logPath}); err != nil {
		t.Fatal(err)
	}
	// A different shape misses the cache; with no trial budget the replay
	// must fail loudly instead of returning an all-zero result.
	if _, err := TuneOperator(GEMM(128, 64, 64, 1), CPU(), Options{Trials: -1, ResumeFrom: logPath}); err == nil {
		t.Fatal("operator replay cache miss must error")
	}
	if _, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "random", Trials: -1, Workers: 2, ResumeFrom: logPath}); err == nil {
		t.Fatal("network replay cache miss must error")
	}
}

func TestTuneNetworkBadSchedulerDoesNotCreateLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.jsonl")
	if _, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "bogus", RecordLog: path, Workers: 2}); err == nil {
		t.Fatal("bad scheduler must error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("bad scheduler run must not create the record log")
	}
}

// committedPretrainJournal is the tuning journal committed for the offline
// pretraining workflow (GEMM 256^3 b1 on cpu, scheduler "harl", 96 trials,
// seed 7 — regenerate with:
// go run ./cmd/harl-tune -op gemm -shape 256,256,256 -scheduler harl -trials 96 -seed 7 -log examples/pretrain/gemm-cpu.jsonl).
const committedPretrainJournal = "examples/pretrain/gemm-cpu.jsonl"

func pretrainWorkload() Workload { return GEMM(256, 256, 256, 1) }

// trialsToReach returns the 1-based trial at which bestLog first reached the
// target, or -1 if it never did.
func trialsToReach(bestLog []float64, target float64) int {
	for i, e := range bestLog {
		if e <= target {
			return i + 1
		}
	}
	return -1
}

func TestPretrainReachesJournalBestFaster(t *testing.T) {
	w := pretrainWorkload()
	best, ok, err := BestRecord(committedPretrainJournal, w, CPU())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("committed journal has no best record for the workload")
	}
	opts := Options{Scheduler: "harl", Trials: 160, Seed: 1}
	cold, err := TuneOperator(w, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.PretrainFrom = committedPretrainJournal
	pre, err := TuneOperator(w, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Pretrained || pre.CostModelSamples <= cold.CostModelSamples {
		t.Fatalf("pretrained run: pretrained=%v samples=%d (cold %d)",
			pre.Pretrained, pre.CostModelSamples, cold.CostModelSamples)
	}
	preReach := trialsToReach(pre.BestLog, best.ExecSeconds)
	coldReach := trialsToReach(cold.BestLog, best.ExecSeconds)
	if preReach < 0 {
		t.Fatalf("pretrained run never reached the journal best %.6g (got %.6g)",
			best.ExecSeconds, pre.ExecSeconds)
	}
	if coldReach >= 0 && preReach >= coldReach {
		t.Fatalf("pretraining did not help: cold reached at trial %d, pretrained at %d", coldReach, preReach)
	}
	t.Logf("journal best %.6g: cold reached at trial %d, pretrained at trial %d", best.ExecSeconds, coldReach, preReach)
}

func TestPretrainJournalsAreWorkerInvariant(t *testing.T) {
	w := pretrainWorkload()
	dir := t.TempDir()
	logs := make([][]byte, 0, 2)
	var results []Result
	for _, workers := range []int{1, 3} {
		path := filepath.Join(dir, fmt.Sprintf("w%d.jsonl", workers))
		res, err := TuneOperator(w, CPU(), Options{
			Scheduler:    "harl",
			Trials:       64,
			Seed:         11,
			Workers:      workers,
			PretrainFrom: committedPretrainJournal,
			RecordLog:    path,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, data)
		results = append(results, res)
	}
	if !bytes.Equal(logs[0], logs[1]) {
		t.Fatal("pretrained journals differ between workers=1 and workers=3")
	}
	if results[0].ExecSeconds != results[1].ExecSeconds || results[0].BestSchedule != results[1].BestSchedule {
		t.Fatal("pretrained results differ between worker counts")
	}
	if !results[0].Pretrained || !results[1].Pretrained {
		t.Fatal("both runs must report pretraining")
	}
}

func TestTrainModelDeterministic(t *testing.T) {
	w := pretrainWorkload()
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	st, err := TrainModel(committedPretrainJournal, []Workload{w}, CPU(), a)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 96 || st.Workloads != 1 || st.Skipped != 0 || !st.Trained || st.Samples != 96 {
		t.Fatalf("train stats %+v", st)
	}
	if _, err := TrainModel(committedPretrainJournal, []Workload{w}, CPU(), b); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("same journal produced different checkpoints")
	}
	// No matching records: the foreign-workload fit must fail loudly.
	if _, err := TrainModel(committedPretrainJournal, []Workload{GEMM(64, 64, 64, 1)}, CPU(), a); err == nil {
		t.Fatal("foreign workload must error")
	}
	if _, err := TrainModel(committedPretrainJournal, nil, CPU(), a); err == nil {
		t.Fatal("empty workload set must error")
	}
	if _, err := TrainModel(filepath.Join(dir, "missing.jsonl"), []Workload{w}, CPU(), a); err == nil {
		t.Fatal("missing journal must error")
	}
}

func TestModelCheckpointAcrossRuns(t *testing.T) {
	w := pretrainWorkload()
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "model.json")
	first, err := TuneOperator(w, CPU(), Options{Scheduler: "ansor", Trials: 48, Seed: 5, ModelOut: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if first.Pretrained {
		t.Fatal("cold run must not report pretraining")
	}
	second, err := TuneOperator(w, CPU(), Options{Scheduler: "ansor", Trials: 48, Seed: 6, ModelIn: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Pretrained {
		t.Fatal("model-in run must report pretraining")
	}
	if second.CostModelSamples != first.CostModelSamples+second.Trials {
		t.Fatalf("model-in run holds %d samples, want %d carried + %d new",
			second.CostModelSamples, first.CostModelSamples, second.Trials)
	}
	if _, err := TuneOperator(w, CPU(), Options{Scheduler: "ansor", Trials: 16, ModelIn: filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("missing model-in must error")
	}
	if _, err := TuneOperator(w, CPU(), Options{Scheduler: "ansor", Trials: 16, PretrainFrom: filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Fatal("missing pretrain log must error")
	}
}

func TestTuneNetworkModelSeeding(t *testing.T) {
	dir := t.TempDir()
	opCkpt := filepath.Join(dir, "op.json")
	if _, err := TrainModel(committedPretrainJournal, []Workload{pretrainWorkload()}, CPU(), opCkpt); err != nil {
		t.Fatal(err)
	}
	netCkpt := filepath.Join(dir, "net.json")
	for _, workers := range []int{0, 2} {
		// Scheduler "harl" queries the model for every scored candidate, so
		// this also pins down that a checkpoint from one workload structure
		// cannot crash predictions on an incompatible one.
		res, err := TuneNetwork("bert", 1, CPU(), Options{
			Scheduler: "harl",
			Trials:    64,
			Seed:      4,
			Workers:   workers,
			ModelIn:   opCkpt,
			ModelOut:  netCkpt,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The GEMM-trained checkpoint seeds exactly BERT's structurally
		// compatible subgraphs (the GEMM family) — more than none, fewer
		// than all (Softmax, Batch_GEMM and element-wise dims differ).
		if res.Pretrained == 0 || res.Pretrained >= len(res.Breakdown) {
			t.Fatalf("workers=%d: %d of %d tasks pretrained", workers, res.Pretrained, len(res.Breakdown))
		}
		if res.CostModelSamples <= res.Trials {
			t.Fatalf("workers=%d: %d samples for %d trials (carried knowledge missing)", workers, res.CostModelSamples, res.Trials)
		}
		if res.CostModelRefits == 0 {
			t.Fatalf("workers=%d: no refits recorded", workers)
		}
		data, err := os.ReadFile(netCkpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("workers=%d: empty network model checkpoint", workers)
		}
	}
}

func TestPretrainMismatchErrors(t *testing.T) {
	// A pretrain journal with no record for the run's workload on the target
	// is almost always a wrong shape/network/target; it must error rather
	// than silently run cold.
	if _, err := TuneOperator(GEMM(64, 64, 64, 1), CPU(), Options{
		Scheduler: "random", Trials: 16, PretrainFrom: committedPretrainJournal,
	}); err == nil || !strings.Contains(err.Error(), "pretrain") {
		t.Fatalf("foreign workload pretrain must error, got %v", err)
	}
	gpu, err := TargetByName("gpu")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TuneOperator(pretrainWorkload(), gpu, Options{
		Scheduler: "random", Trials: 16, PretrainFrom: committedPretrainJournal,
	}); err == nil {
		t.Fatal("foreign target pretrain must error")
	}
	// A network where at least one subgraph matches is fine; one where none
	// match errors.
	if _, err := TuneNetwork("mobilenetv2", 1, CPU(), Options{
		Scheduler: "random", Trials: 32, PretrainFrom: committedPretrainJournal,
	}); err == nil {
		t.Fatal("network with no matching subgraphs must error")
	}
}
