package registry

import (
	"fmt"
	"os"
	"testing"
	"time"

	"harl/internal/tunelog"
)

// TestRegistryScaleSmoke is the CI bench-smoke scale check, gated behind
// HARL_REGISTRY_SCALE=1: ~10k synthetic keys publish into a sharded registry
// and leave every touched shard loaded, point lookups stay sub-millisecond, a
// superseding burst on one key appends exactly its improvements, and a v1
// single-file registry beside it still opens and resolves untouched.
func TestRegistryScaleSmoke(t *testing.T) {
	if os.Getenv("HARL_REGISTRY_SCALE") != "1" {
		t.Skip("set HARL_REGISTRY_SCALE=1 to run the registry scale smoke")
	}
	dir := t.TempDir()
	r := openLayout(t, dir, LayoutSharded)
	const keys = 10000
	const chunk = 500
	recs := make([]tunelog.Record, 0, keys)
	for i := 0; i < keys; i++ {
		recs = append(recs, synthRecord(fmt.Sprintf("w@scale-%05d", i), "harl", float64(i+1)*1e-7, i+1))
	}
	for i := 0; i < keys; i += chunk {
		if _, err := r.PublishBatch(recs[i : i+chunk]); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != keys {
		t.Fatalf("Len = %d, want %d", r.Len(), keys)
	}
	checkTouchedLoaded(t, r, recs)

	// Point lookups must stay sub-millisecond on average — the service's
	// cache-hit latency contract.
	const probes = 2000
	start := time.Now()
	for i := 0; i < probes; i++ {
		w := fmt.Sprintf("w@scale-%05d", (i*4999)%keys)
		if _, ok := resolve(t, r, w, "cpu-xeon6226r", "harl"); !ok {
			t.Fatalf("%s missing", w)
		}
	}
	if avg := time.Since(start) / probes; avg >= time.Millisecond {
		t.Fatalf("average resolve %v, want sub-millisecond", avg)
	}

	// Supersede one key again and again, each improvement beside a slower
	// record: the journal must grow by exactly the improvements, and the
	// hot shard's journal hold one line per record it counts.
	hot := "w@scale-00000"
	const supersedes = 4000
	before := r.Stats().Records
	improvements := 0
	for i := 0; i < supersedes; i += chunk {
		batch := make([]tunelog.Record, 0, 2*chunk)
		for j := 0; j < chunk && i+j < supersedes; j++ {
			batch = append(batch,
				synthRecord(hot, "harl", 1e-7/float64(i+j+2), keys+i+j),
				synthRecord(hot, "harl", 1, keys+i+j))
		}
		n, err := r.PublishBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		improvements += n
	}
	st := r.Stats()
	if improvements != supersedes || st.Records-before != improvements {
		t.Fatalf("%d improvements of %d, %d lines appended; want %d each", improvements, 2*supersedes, st.Records-before, supersedes)
	}
	hj := r.journalFor(hot)
	if lines := countLines(t, hj.path()); lines != hj.records {
		t.Fatalf("hot shard journal holds %d lines, its index counts %d", lines, hj.records)
	}
	if got, ok := resolve(t, r, hot, "cpu-xeon6226r", "harl"); !ok || got.ExecSec != 1e-7/float64(supersedes+1) {
		t.Fatalf("hot key after the burst = %+v, %v", got, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// A v1 registry created beside all this still opens and resolves.
	v1dir := t.TempDir()
	v1 := openLayout(t, v1dir, LayoutSingle)
	rec := synthRecord("w@v1-smoke", "harl", 1e-4, 1)
	if _, err := v1.Publish(rec); err != nil {
		t.Fatal(err)
	}
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}
	v1again := openLayout(t, v1dir, LayoutAuto)
	defer v1again.Close()
	if v1again.Layout() != LayoutSingle {
		t.Fatalf("v1 dir detected as %q", v1again.Layout())
	}
	if got, ok := resolve(t, v1again, "w@v1-smoke", rec.Target, "harl"); !ok || got != rec {
		t.Fatalf("v1 resolve = %+v, %v", got, ok)
	}
}
