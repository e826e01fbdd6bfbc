package harl

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"harl/internal/tunelog"
	"harl/internal/workload"
)

// TestCommittedJournalByteIdentity re-runs the exact tuning configuration that
// produced the committed pretraining journal and requires a byte-identical
// result. This is the end-to-end bit-identity gate for the search hot path:
// any drift in the cost model's arithmetic (flattened prediction kernels,
// parallel or buffer-reusing refit), the feature cache, or the measurement
// pipeline changes some prediction, which changes some candidate ranking,
// which changes the measured trial sequence — and this comparison fails.
func TestCommittedJournalByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("re-tunes the committed 96-trial GEMM workload")
	}
	path := filepath.Join(t.TempDir(), "regen.jsonl")
	_, err := TuneOperator(pretrainWorkload(), CPU(), Options{
		Scheduler: "harl",
		Trials:    96,
		Seed:      7,
		RecordLog: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(committedPretrainJournal)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("regenerated journal differs from %s (%d vs %d bytes): the search hot path is no longer bit-identical to the committed baseline",
			committedPretrainJournal, len(got), len(want))
	}
}

// TestBenchmarkConfigJournalHashes pins the journals of the benchmark's two
// tuning configurations to the bytes they had before the serial network tuner
// was retired and the entry points were folded onto one session pipeline
// (hashes taken at commit 152fbf7), so that refactor's byte-identity — and
// any later one's — is an executable assertion.
func TestBenchmarkConfigJournalHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("re-tunes the benchmark's BERT and GEMM configurations")
	}
	dir := t.TempDir()
	check := func(name, want string, tune func(path string) error) {
		t.Helper()
		path := filepath.Join(dir, name+".jsonl")
		if err := tune(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Fatalf("%s journal sha256 %s (%d bytes), want %s", name, got, len(data), want)
		}
	}
	check("net-bert-harl", "473f4d55ea1b80bdd5aa2c22bb6bb2f0c833eb0fffa2cdcead232bbd3174af2b", func(path string) error {
		_, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "harl", Trials: 800, Seed: 1, Workers: 2, RecordLog: path})
		return err
	})
	check("op-gemm-harl", "1f080a7846e21bc3b4837cd5dd242ba93ac7e065888dd2bc5436e3aa6da1689b", func(path string) error {
		_, err := TuneOperator(GEMM(1024, 1024, 1024, 1), CPU(), Options{Scheduler: "harl", Trials: 320, Seed: 1, Workers: 1, RecordLog: path})
		return err
	})
}

// TestSeededSessionPinned pins a session that stacks every start-up seed on
// one task set: a short BERT run writes a journal, and a second run pretrains
// from it, resumes from it and resolves one subgraph's best from a registry
// holding it, at workers 1 and 2. The record log's sha256 and the seed counts
// are literals, so a change to how a session seeds its tasks — their order or
// what each stage reads — has to show here.
func TestSeededSessionPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three short BERT sessions")
	}
	dir := t.TempDir()
	first := filepath.Join(dir, "first.jsonl")
	if _, err := TuneNetwork("bert", 1, CPU(), Options{Scheduler: "harl", Trials: 160, Seed: 3, RecordLog: first}); err != nil {
		t.Fatal(err)
	}
	db, err := tunelog.LoadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	net, err := workload.NetworkByName("bert", 1)
	if err != nil {
		t.Fatal(err)
	}
	best, ok := db.Best(net.Subgraphs[0].Fingerprint(), CPU().Name())
	if !ok {
		t.Fatalf("first session journaled nothing for %s", net.Subgraphs[0].Name)
	}
	const wantLog = "aa3e50a868cae118955afa03167eb9304198e9ac6f3967665342cd5d72459af7"
	for _, workers := range []int{1, 2} {
		reg, err := OpenRegistry(filepath.Join(dir, fmt.Sprintf("reg%d", workers)))
		if err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		if _, err := reg.reg.Publish(best); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("seeded%d.jsonl", workers))
		res, err := TuneNetwork("bert", 1, CPU(), Options{
			Scheduler: "harl", Trials: 160, Seed: 5, Workers: workers, RecordLog: path,
			PretrainFrom: first, ResumeFrom: first, Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(data))
		if got != wantLog || res.WarmStarted != 10 || res.Pretrained != 10 || res.CacheHits != 1 {
			t.Fatalf("w=%d: record log sha256 %s (%d bytes), warm-started %d, pretrained %d, cache hits %d; want %s, 10, 10, 1",
				workers, got, len(data), res.WarmStarted, res.Pretrained, res.CacheHits, wantLog)
		}
	}
}
