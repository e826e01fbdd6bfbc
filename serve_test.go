package harl

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"harl/internal/tunelog"
)

// TestRegistryHitServesCommittedJournalBest pins the service contract
// against the committed GEMM journal: importing it into a registry makes the
// matching tune request a pure lookup — zero measured trials, zero search
// time, and exactly the journal's best schedule.
func TestRegistryHitServesCommittedJournalBest(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, err := reg.ImportJournal(filepath.Join("examples", "pretrain", "gemm-cpu.jsonl")); err != nil {
		t.Fatal(err)
	}
	w := GEMM(256, 256, 256, 1)
	res, err := TuneOperator(w, CPU(), Options{Scheduler: "harl", Trials: 320, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("expected a registry cache hit for the committed journal's workload")
	}
	if res.Trials != 0 || res.SearchSeconds != 0 {
		t.Fatalf("cache hit spent %d trials / %.1f s search, want 0 / 0", res.Trials, res.SearchSeconds)
	}
	// The served schedule is the journal's best record, byte for byte.
	best, ok, err := BestRecord(filepath.Join("examples", "pretrain", "gemm-cpu.jsonl"), w, CPU())
	if err != nil || !ok {
		t.Fatalf("journal best: ok=%v err=%v", ok, err)
	}
	hit, ok, err := reg.Lookup(w, CPU(), "harl")
	if err != nil || !ok {
		t.Fatalf("registry lookup: ok=%v err=%v", ok, err)
	}
	if hit.Record.Steps != best.Steps {
		t.Fatalf("registry served steps %q, journal best is %q", hit.Record.Steps, best.Steps)
	}
	if res.BestSchedule != hit.Schedule || res.ExecSeconds != hit.ExecSeconds {
		t.Fatalf("hit result (%q, %g) disagrees with lookup (%q, %g)",
			res.BestSchedule, res.ExecSeconds, hit.Schedule, hit.ExecSeconds)
	}
	// A different scheduler key must miss and fall through to a real search.
	miss, err := TuneOperator(w, CPU(), Options{Scheduler: "random", Trials: 32, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit || miss.Trials == 0 {
		t.Fatalf("different scheduler key hit the cache: %+v", miss)
	}
}

// TestOpenRegistryLayouts: a new registry opens sharded by default, and the
// layout names are auto and sharded only — "single" is not one, and the error
// says which are.
func TestOpenRegistryLayouts(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Layout(); got != "sharded" {
		t.Fatalf("new registry opened %q, want sharded", got)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = OpenRegistryOptions(t.TempDir(), RegistryOptions{Layout: "single"})
	if err == nil {
		t.Fatal(`layout "single" was accepted`)
	}
	for _, name := range []string{`"single"`, "auto", "sharded"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name %s", err, name)
		}
	}
}

// TestTunePublishesThenHits covers the publish-after half of the cycle: a
// cold tune with a registry makes the identical second request free.
func TestTunePublishesThenHits(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	w := GEMM(64, 64, 64, 1)
	opts := Options{Scheduler: "random", Trials: 48, Seed: 3, Registry: reg}
	cold, err := TuneOperator(w, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Trials == 0 {
		t.Fatalf("cold run should have tuned: %+v", cold)
	}
	hot, err := TuneOperator(w, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hot.CacheHit || hot.Trials != 0 {
		t.Fatalf("second identical run should hit: %+v", hot)
	}
	if hot.BestSchedule != cold.BestSchedule || hot.ExecSeconds != cold.ExecSeconds {
		t.Fatalf("hit (%q, %g) disagrees with the run that published it (%q, %g)",
			hot.BestSchedule, hot.ExecSeconds, cold.BestSchedule, cold.ExecSeconds)
	}
}

// TestNetworkRegistryFullHitSkipsSearch publishes a network's subgraph bests
// and checks the second identical request collapses to a lookup.
func TestNetworkRegistryFullHitSkipsSearch(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	// 80 trials = one 8-candidate round for each of BERT's ten subgraphs,
	// so every task measures a best and publishes it.
	opts := Options{Scheduler: "random", Trials: 80, MeasureK: 8, Seed: 5, Workers: 2, Registry: reg}
	cold, err := TuneNetwork("bert", 1, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Trials == 0 || cold.CacheHits != 0 {
		t.Fatalf("cold network run: %+v", cold)
	}
	hot, err := TuneNetwork("bert", 1, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if hot.CacheHits != len(hot.Breakdown) {
		t.Fatalf("cache hits %d of %d subgraphs", hot.CacheHits, len(hot.Breakdown))
	}
	if hot.Trials != 0 {
		t.Fatalf("full-hit network run measured %d trials, want 0", hot.Trials)
	}
	if hot.MeasuredSeconds <= 0 {
		t.Fatalf("full-hit run lost the execution estimate: %+v", hot)
	}
	// A zero-budget replay served entirely by the registry is complete: the
	// replay check counts registry seeds, not only ResumeFrom ones.
	opts.Trials = -1
	replay, err := TuneNetwork("bert", 1, CPU(), opts)
	if err != nil {
		t.Fatalf("registry-only replay: %v", err)
	}
	if replay.CacheHits != len(replay.Breakdown) || replay.Trials != 0 || replay.EstimatedSeconds != hot.EstimatedSeconds {
		t.Fatalf("registry-only replay: %+v", replay)
	}
}

// TestCancelOperatorLeavesResumableArtifacts is the cancel acceptance: a
// session cancelled mid-run must return its partial best and leave a loadable
// journal (every committed measurement), and a later run must warm-start from
// that journal. A context cancelled before the session starts gives a
// zero-trial Cancelled result.
func TestCancelOperatorLeavesResumableArtifacts(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "tune.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	w := GEMM(256, 256, 256, 1)
	res, err := TuneOperatorContext(ctx, w, CPU(), Options{
		Scheduler: "harl",
		Trials:    1 << 30, // far beyond what 150ms can measure
		RecordLog: logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("run was not cancelled")
	}
	if res.Trials == 0 || res.BestSchedule == "" {
		t.Fatalf("cancelled run kept no partial best: %+v", res)
	}
	// The journal holds exactly the committed measurements.
	recs, err := LoadRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Trials {
		t.Fatalf("journal has %d records for %d committed trials", len(recs), res.Trials)
	}
	// And the journal warm-starts a zero-budget replay of the partial best.
	replay, err := TuneOperator(w, CPU(), Options{Scheduler: "harl", Trials: -1, ResumeFrom: logPath})
	if err != nil {
		t.Fatal(err)
	}
	if !replay.WarmStarted || replay.Trials != 0 {
		t.Fatalf("replay of the cancelled journal: %+v", replay)
	}
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	res, err = TuneOperatorContext(pre, GEMM(64, 64, 64, 1), CPU(), Options{Scheduler: "random", Trials: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled || res.Trials != 0 {
		t.Fatalf("pre-cancelled session: %+v", res)
	}
}

// TestCancelNetworkMidWave cancels a concurrent multi-task session and
// checks what the wave barrier leaves: a loadable journal consistent with the
// committed trial count, and partial per-subgraph results.
func TestCancelNetworkMidWave(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "net.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	res, err := TuneNetworkContext(ctx, "bert", 1, CPU(), Options{
		Scheduler: "harl",
		Trials:    1 << 20,
		MeasureK:  8, // small waves so the cancel lands after few trials even under -race
		Workers:   3,
		RecordLog: logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("network run was not cancelled")
	}
	if res.Trials == 0 {
		t.Fatal("cancelled network run committed no trials")
	}
	recs, err := LoadRecords(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Trials {
		t.Fatalf("journal has %d records for %d committed trials", len(recs), res.Trials)
	}
	total := 0
	for _, b := range res.Breakdown {
		total += b.Trials
	}
	if total != res.Trials {
		t.Fatalf("breakdown trials %d != total %d", total, res.Trials)
	}
}

// TestBrokenRegistryRecordIsRepaired covers the poisoned-key path: a foreign
// record whose steps no longer reconstruct — with an unbeatably low recorded
// time — must not serve hits, must not suppress tuning, and must be
// force-replaced by the fresh run's native best so the key heals.
func TestBrokenRegistryRecordIsRepaired(t *testing.T) {
	// poison publishes a record for w's key whose steps do not reconstruct and
	// whose recorded time no real measurement can beat.
	poison := func(t *testing.T, reg *Registry, w Workload, scheduler string) {
		t.Helper()
		rec := tunelog.Record{
			V: tunelog.SchemaVersion, Workload: w.Fingerprint(), Target: CPU().Name(),
			Scheduler: scheduler, Steps: "sk=99 s0=1,1,1,1", ExecSec: 1e-12, Trial: 1, Seed: 1,
		}
		if _, err := reg.reg.Publish(rec); err != nil {
			t.Fatal(err)
		}
		if _, _, err := reg.Lookup(w, CPU(), scheduler); err == nil {
			t.Fatal("poisoned record should fail reconstruction")
		}
	}
	openReg := func(t *testing.T) *Registry {
		t.Helper()
		reg, err := OpenRegistry(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { reg.Close() })
		return reg
	}

	t.Run("operator", func(t *testing.T) {
		reg := openReg(t)
		w := GEMM(64, 64, 64, 1)
		poison(t, reg, w, "random")
		opts := Options{Scheduler: "random", Trials: 24, Seed: 3, Registry: reg}
		res, err := TuneOperator(w, CPU(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHit || res.Trials == 0 {
			t.Fatalf("poisoned key served a hit: %+v", res)
		}
		// The fresh best replaced the poison despite its lower recorded time.
		hit, ok, err := reg.Lookup(w, CPU(), "random")
		if err != nil || !ok {
			t.Fatalf("key not repaired: ok=%v err=%v", ok, err)
		}
		if hit.Schedule != res.BestSchedule {
			t.Fatalf("repaired best %q != tuned best %q", hit.Schedule, res.BestSchedule)
		}
		again, err := TuneOperator(w, CPU(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || again.Trials != 0 {
			t.Fatalf("repaired key should hit: %+v", again)
		}
	})

	// A network session publishes its bests as one batch: the poisoned
	// subgraph's Force heal rides in it beside the other subgraphs' ordinary
	// publishes.
	t.Run("bert", func(t *testing.T) {
		reg := openReg(t)
		subgraphs, err := NetworkWorkloads("bert", 1)
		if err != nil {
			t.Fatal(err)
		}
		poison(t, reg, subgraphs[0], "random")
		// One 8-candidate round for each of BERT's ten subgraphs.
		opts := Options{Scheduler: "random", Trials: 80, MeasureK: 8, Seed: 5, Workers: 2, Registry: reg}
		res, err := TuneNetwork("bert", 1, CPU(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheHits != 0 || res.Trials == 0 {
			t.Fatalf("cold run over a poisoned key: %+v", res)
		}
		tuned := map[string]float64{}
		for _, b := range res.Breakdown {
			tuned[b.Name] = b.ExecSeconds
		}
		// Every key, the healed one included, now holds this run's best.
		for _, w := range subgraphs {
			hit, ok, err := reg.Lookup(w, CPU(), "random")
			if err != nil || !ok {
				t.Fatalf("%s: no reconstructing best after the run: ok=%v err=%v", w.Name(), ok, err)
			}
			if hit.ExecSeconds != tuned[w.Name()] {
				t.Fatalf("%s: registry best %g s != tuned best %g s", w.Name(), hit.ExecSeconds, tuned[w.Name()])
			}
		}
		again, err := TuneNetwork("bert", 1, CPU(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if again.CacheHits != len(subgraphs) || again.Trials != 0 {
			t.Fatalf("repaired network should fully hit: %d of %d hits, %d trials", again.CacheHits, len(subgraphs), again.Trials)
		}
	})
}
