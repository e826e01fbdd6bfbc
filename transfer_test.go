package harl

import (
	"strings"
	"testing"
)

// importedRegistry opens a fresh registry seeded from the committed pretrain
// journal — the donor pool every transfer test scans.
func importedRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	n, err := reg.ImportJournal(committedPretrainJournal)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("journal import seeded no keys")
	}
	return reg
}

// TestTransferWarmStartReachesBestFaster mirrors
// TestPretrainReachesJournalBestFaster across targets: the committed journal
// tuned GEMM 256^3 on cpu; tuning the same workload on gpu misses the
// registry, and with Options.Transfer the cpu key becomes the donor — its
// best schedule is measured as the first candidate and its records seed the
// cost model. The warm search must reach both the donor journal's best cost
// and the full cold search's final best in a quarter of the cold trial
// budget or less.
func TestTransferWarmStartReachesBestFaster(t *testing.T) {
	w := pretrainWorkload()
	donorBest, ok, err := BestRecord(committedPretrainJournal, w, CPU())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("committed journal has no best record for the workload")
	}
	opts := Options{Scheduler: "harl", Trials: 160, Seed: 1}
	cold, err := TuneOperator(w, GPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmTransfer != "" {
		t.Fatalf("cold run claims a donor %q", cold.WarmTransfer)
	}
	opts.Registry = importedRegistry(t)
	opts.Transfer = true
	warm, err := TuneOperator(w, GPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(warm.WarmTransfer, "@"+CPU().Name()) {
		t.Fatalf("expected a cpu donor, got %q", warm.WarmTransfer)
	}
	if !warm.Pretrained {
		t.Fatal("transfer must seed the cost model (Pretrained)")
	}
	if warm.Trials != opts.Trials {
		t.Fatalf("trial accounting: trials=%d want %d", warm.Trials, opts.Trials)
	}
	// The literal acceptance bar: the donor journal's best cost, reached in
	// <= 1/4 of the cold trial count.
	donorReach := trialsToReach(warm.BestLog, donorBest.ExecSeconds)
	if donorReach < 0 || donorReach*4 > cold.Trials {
		t.Fatalf("donor-journal best %.6g reached at trial %d, want <= %d",
			donorBest.ExecSeconds, donorReach, cold.Trials/4)
	}
	// The stronger bar: the quality the cold search only reaches with its
	// full budget, in <= 1/4 of that budget.
	coldReach := trialsToReach(cold.BestLog, cold.ExecSeconds)
	warmReach := trialsToReach(warm.BestLog, cold.ExecSeconds)
	if warmReach < 0 || warmReach*4 > cold.Trials {
		t.Fatalf("cold final best %.6g: cold reached at trial %d, warm at %d (want <= %d)",
			cold.ExecSeconds, coldReach, warmReach, cold.Trials/4)
	}
	t.Logf("donor %s: donor best at trial %d, cold final best at trial %d (cold needed %d)",
		warm.WarmTransfer, donorReach, warmReach, coldReach)
}

// TestTransferIncompatibleDonorSkipped: a registry whose only records cannot
// reconstruct against the recipient's sketches (a GEMM journal donating to a
// 2-D convolution) must be skipped loudly — no donor reported, no model
// seeded, and the run degrades to a plain cold search instead of erroring.
func TestTransferIncompatibleDonorSkipped(t *testing.T) {
	reg := importedRegistry(t)
	w := Conv2D(28, 28, 32, 32, 3, 1, 1, 1)
	res, err := TuneOperator(w, CPU(), Options{
		Scheduler: "harl", Trials: 48, Seed: 1, Registry: reg, Transfer: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmTransfer != "" {
		t.Fatalf("incompatible donor must be skipped, got %q", res.WarmTransfer)
	}
	if res.Pretrained {
		t.Fatal("incompatible donor must not seed the cost model")
	}
	if res.ExecSeconds <= 0 || res.Trials != 48 {
		t.Fatalf("cold fallback broken: exec=%g trials=%d", res.ExecSeconds, res.Trials)
	}
}

// TestTransferNeedsRegistry: Options.Transfer without a Registry is a
// configuration error, for operator and network sessions alike.
func TestTransferNeedsRegistry(t *testing.T) {
	if _, err := TuneOperator(pretrainWorkload(), CPU(), Options{Transfer: true, Trials: 8}); err == nil {
		t.Fatal("operator session must reject Transfer without Registry")
	}
	if _, err := TuneNetwork("bert", 1, CPU(), Options{Transfer: true, Trials: 8, Workers: 1}); err == nil {
		t.Fatal("network session must reject Transfer without Registry")
	}
}

// TestTransferSeedsChargedAgainstBudget: a transfer seed is measured ahead of
// its task's first round and charged like any trial, so it comes out of that
// round's cap — the budget lands exactly even when the wave that measures the
// seed is also the run's last, on the operator path and on a network whose
// budget is smaller than its first wave.
func TestTransferSeedsChargedAgainstBudget(t *testing.T) {
	w := pretrainWorkload()
	for _, n := range []int{1, 8, 16, 17} {
		res, err := TuneOperator(w, GPU(), Options{Scheduler: "random", Trials: n, Seed: 1, Registry: importedRegistry(t), Transfer: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.WarmTransfer == "" {
			t.Fatal("no donor: the case needs a pending seed")
		}
		if res.Trials != n {
			t.Errorf("operator budget %d: spent %d trials", n, res.Trials)
		}
	}
	// Every BERT subgraph tuned on gpu is a cross-target donor for the same
	// subgraph on cpu. The first cpu wave would be ten rounds of 16; a budget
	// of 20 narrows it to two subgraphs, each with a seed pending.
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	opts := Options{Scheduler: "random", Trials: 160, Seed: 1, Workers: 1, Registry: reg}
	if _, err := TuneNetwork("bert", 1, GPU(), opts); err != nil {
		t.Fatal(err)
	}
	opts.Trials, opts.Transfer = 20, true
	net, err := TuneNetwork("bert", 1, CPU(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if net.WarmTransfers != 10 {
		t.Fatalf("%d of 10 subgraphs found their gpu donor", net.WarmTransfers)
	}
	if net.Trials != 20 {
		t.Errorf("network budget 20: spent %d trials", net.Trials)
	}
}
