package harl

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"harl/internal/search"
)

// marshalEvents renders an event stream as its SSE wire payloads — the bytes
// the acceptance criterion compares across worker counts.
func marshalEvents(t *testing.T, events []ProgressEvent) []byte {
	t.Helper()
	data, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestOperatorProgressWorkerInvariant: the public OnProgress stream of an
// operator run is byte-identical for every Workers value.
func TestOperatorProgressWorkerInvariant(t *testing.T) {
	run := func(workers int) []ProgressEvent {
		var events []ProgressEvent
		w := GEMM(96, 96, 96, 1)
		res, err := TuneOperator(w, CPU(), Options{
			Scheduler: "harl", Trials: 96, Seed: 11, Workers: workers,
			OnProgress: func(e ProgressEvent) { events = append(events, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials == 0 || len(events) == 0 {
			t.Fatalf("run produced no progress: %+v", res)
		}
		return events
	}
	one, four := marshalEvents(t, run(1)), marshalEvents(t, run(4))
	if string(one) != string(four) {
		t.Fatalf("operator event streams diverge across worker counts:\n%s\n%s", one, four)
	}
}

// TestNetworkProgressWorkerInvariant: the network tuner's event stream
// (wave-barrier fan-in) is byte-identical for Workers 0, 1 and 4, and each
// event carries the subgraph it describes.
func TestNetworkProgressWorkerInvariant(t *testing.T) {
	run := func(workers int) []ProgressEvent {
		var events []ProgressEvent
		res, err := TuneNetwork("bert", 1, CPU(), Options{
			Scheduler: "harl", Trials: 120, MeasureK: 8, Seed: 9, Workers: workers,
			OnProgress: func(e ProgressEvent) { events = append(events, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Trials == 0 || len(events) == 0 {
			t.Fatalf("run produced no progress: %+v", res)
		}
		return events
	}
	one := run(1)
	for _, e := range one {
		if e.Workload == "" {
			t.Fatalf("network event lacks its subgraph name: %+v", e)
		}
	}
	a := marshalEvents(t, one)
	for _, workers := range []int{0, 4} {
		if b := marshalEvents(t, run(workers)); string(a) != string(b) {
			t.Fatalf("network event streams diverge between workers=1 and %d:\n%s\n%s", workers, a, b)
		}
	}
}

// TestPlateauStopCheckpointsAndPublishes: a plateau-stopped session ends the
// way a cancelled one does — the journal holds every committed measurement,
// the partial best is published to the registry — and reports PlateauStopped
// without Cancelled.
func TestPlateauStopCheckpointsAndPublishes(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "tune.jsonl")
	reg, err := OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	w := GEMM(64, 64, 64, 1)
	opts := Options{
		Scheduler: "harl", Trials: 320, Seed: 1,
		Plateau:   Plateau{Window: 6, MinImprovement: 0.005},
		RecordLog: logPath, Registry: reg,
	}
	res, err := TuneOperator(w, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlateauStopped {
		t.Fatalf("flatlining run did not plateau-stop: %+v", res)
	}
	if res.Cancelled {
		t.Fatal("plateau stop must not report Cancelled")
	}
	if res.Trials == 0 || res.Trials >= 320 {
		t.Fatalf("plateau stop spent %d trials, want 0 < trials < budget", res.Trials)
	}
	recs, err := LoadRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Trials {
		t.Fatalf("journal has %d records for %d committed trials", len(recs), res.Trials)
	}
	// The partial best was published: the identical request is now a hit
	// serving exactly the plateau-stopped session's best.
	hit, ok, err := reg.Lookup(w, CPU(), "harl")
	if err != nil || !ok {
		t.Fatalf("plateau-stopped best not in registry: ok=%v err=%v", ok, err)
	}
	if hit.Record.Trial != res.Trials {
		t.Fatalf("published record carries trial %d, session stopped at %d", hit.Record.Trial, res.Trials)
	}
	if hit.Schedule != res.BestSchedule {
		t.Fatalf("registry serves %q, plateau stop found %q", hit.Schedule, res.BestSchedule)
	}
	again, err := TuneOperator(w, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Trials != 0 {
		t.Fatalf("second identical request should be a cache hit: %+v", again)
	}
}

// TestPlateauStopIsWorkerInvariant: whether and where a run plateau-stops is
// part of the determinism contract.
func TestPlateauStopIsWorkerInvariant(t *testing.T) {
	run := func(workers int) Result {
		res, err := TuneOperator(GEMM(64, 64, 64, 1), CPU(), Options{
			Scheduler: "harl", Trials: 320, Seed: 1, Workers: workers,
			Plateau: Plateau{Window: 6, MinImprovement: 0.005},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if !one.PlateauStopped || !four.PlateauStopped {
		t.Fatalf("plateau did not fire: w1=%+v w4=%+v", one, four)
	}
	if one.Trials != four.Trials || one.BestSchedule != four.BestSchedule {
		t.Fatalf("plateau stop diverges across workers: w1 %d trials %q, w4 %d trials %q",
			one.Trials, one.BestSchedule, four.Trials, four.BestSchedule)
	}
}

// TestNetworkPlateauStop: the same policy stops a network session through the
// wave-barrier cancel path, with partial bests published.
func TestNetworkPlateauStop(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// The random engine keeps the test cheap; the plateau path is identical
	// across engines (it reads only the committed trajectory).
	res, err := TuneNetwork("bert", 1, CPU(), Options{
		Scheduler: "random", Trials: 4000, MeasureK: 8, Seed: 2, Workers: 2,
		Plateau:  Plateau{Window: 8, MinImprovement: 0.01},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlateauStopped || res.Cancelled {
		t.Fatalf("network plateau stop flags: %+v", res)
	}
	if res.Trials == 0 || res.Trials >= 4000 {
		t.Fatalf("network plateau stop spent %d trials, want 0 < trials < budget", res.Trials)
	}
	// Every measured subgraph's partial best was published.
	published := reg.Len()
	if published == 0 {
		t.Fatal("plateau-stopped network run published nothing")
	}
}

// TestPlateauDetectorSamplesOncePerWave is the regression for the
// network false-fire: a concurrent wave emits one event per advanced
// subgraph, all carrying the same post-wave objective, and those must count
// as ONE trajectory point — not fill the window within a single wave.
func TestPlateauDetectorSamplesOncePerWave(t *testing.T) {
	d := &plateauDetector{p: Plateau{Window: 3}}
	for i := 0; i < 10; i++ {
		if d.observe(0, 1e-6) {
			t.Fatal("events of one wave must not fill the plateau window")
		}
	}
	for w := 1; w <= 2; w++ {
		if d.observe(w, 1e-6) {
			t.Fatalf("window fired with only %d waves observed", w+1)
		}
	}
	if !d.observe(3, 1e-6) {
		t.Fatal("flat trajectory across window+1 waves must plateau")
	}
}

// TestNetworkPlateauNeedsFullWindowOfWaves: a network run whose budget spans
// fewer waves than the window can never plateau-stop — with per-event
// counting (the fixed bug) BERT's 10-events-per-wave would have tripped a
// 6-wave window inside wave one.
func TestNetworkPlateauNeedsFullWindowOfWaves(t *testing.T) {
	res, err := TuneNetwork("bert", 1, CPU(), Options{
		Scheduler: "random", Trials: 400, MeasureK: 8, Seed: 2, Workers: 2,
		Plateau: Plateau{Window: 6, MinImprovement: 0.005},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlateauStopped {
		t.Fatalf("run of ~5 waves plateau-stopped against a 6-wave window: %+v", res)
	}
	if res.Trials < 400 {
		t.Fatalf("budget not exhausted: %d trials", res.Trials)
	}
}

// TestPlateauOnFinalWaveDoesNotReportEarlyStop: a detector that fires on the
// last budgeted wave stopped nothing — budget-exhausted is checked before the
// context at every barrier — so the run must not claim PlateauStopped.
func TestPlateauOnFinalWaveDoesNotReportEarlyStop(t *testing.T) {
	o := Options{Plateau: Plateau{Window: 1, MinImprovement: 1}}
	sessCtx, hook, plateaued, cleanup := o.progressSession(context.Background(), []string{"w"})
	defer cleanup()
	hook(search.Progress{Wave: 0, RunBest: 1e-6})
	hook(search.Progress{Wave: 1, RunBest: 1e-6}) // fires: 0% <= 100%
	if sessCtx.Err() == nil {
		t.Fatal("detector did not cancel the session context")
	}
	if plateaued(false) {
		t.Fatal("a session that completed its budget must not report a plateau stop")
	}
	if !plateaued(true) {
		t.Fatal("a session the detector cut short must report the plateau stop")
	}
}

// TestCancelledRunPublishesPartialBest: a user-cancelled session publishes
// its partial best exactly like a plateau-stopped one (keep-better, so the
// partial can only improve the key).
func TestCancelledRunPublishesPartialBest(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	w := GEMM(256, 256, 256, 1)
	res, err := TuneOperatorContext(ctx, w, CPU(), Options{
		Scheduler: "harl", Trials: 1 << 30, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.PlateauStopped {
		t.Fatalf("cancelled run flags: %+v", res)
	}
	hit, ok, err := reg.Lookup(w, CPU(), "harl")
	if err != nil || !ok {
		t.Fatalf("cancelled partial best not published: ok=%v err=%v", ok, err)
	}
	if hit.Schedule != res.BestSchedule {
		t.Fatalf("registry serves %q, cancelled run found %q", hit.Schedule, res.BestSchedule)
	}
}

// TestCancelledRunFitsPendingVersion: a session cancelled at a round boundary
// stops with its last committed training-set version unread (here every
// version: the random engine never reads the model). The result still counts
// every sample and version, and the journal every trial. That a version
// fitted late is byte for byte the fit over the session's own journal is
// internal/search's TestFitOnFirstRead.
func TestCancelledRunFitsPendingVersion(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "j.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rounds := 0
	w := GEMM(256, 256, 256, 1)
	res, err := TuneOperatorContext(ctx, w, CPU(), Options{
		Scheduler: "random", Trials: 1 << 30, Seed: 3, RecordLog: logPath,
		OnProgress: func(ProgressEvent) {
			if rounds++; rounds == 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Trials != 48 || res.CostModelSamples != 48 || res.CostModelRefits != 3 {
		t.Fatalf("cancelled after 3 rounds of 16: %+v", res)
	}
	recs, err := LoadRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Trials {
		t.Fatalf("journal has %d records for %d committed trials", len(recs), res.Trials)
	}
}
