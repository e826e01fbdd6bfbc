package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// noisyHostShare is how far two sets' host calibration may differ before their
// timings are no longer comparable.
const noisyHostShare = 0.05

func loadSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles compares result set B against A and returns the exit code.
func compareFiles(a, b string, w io.Writer) int {
	sa, err := loadSet(a)
	if err == nil {
		var sb *resultSet
		if sb, err = loadSet(b); err == nil {
			return compareSets(sa, sb, w)
		}
	}
	fmt.Fprintln(w, "benchmark: compare:", err)
	return 2
}

// worseBy is the share by which b is worse than a, given which way is better;
// negative when b is better.
func worseBy(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if spec.Better == "higher" {
		d = -d
	}
	return d
}

// compareSets judges B against A, one row per workload and end-to-end metric:
//
//	ok          B is no worse than A by more than the metric's bound
//	regressed   B is worse by more than the bound and the host was steady
//	unresolved  B is worse by more than the bound but the two sets' host
//	            calibration differs by more than 5% (noisy_host): the
//	            difference cannot be told from the machine's
//
// When both sets ran the same seed, the determinism ledger must also agree
// exactly — journal hashes, trial and refit counts, best run times, simulated
// search clocks. A difference there is a failure, never noise. It returns 0
// when nothing regressed and nothing deterministic differs.
func compareSets(a, b *resultSet, w io.Writer) int {
	code := 0
	byKey := func(s *resultSet) map[string]*runResult {
		m := map[string]*runResult{}
		for _, r := range s.Runs {
			m[fmt.Sprintf("%s/%v", r.Workload, r.Trace)] = r
		}
		return m
	}
	ma, mb := byKey(a), byKey(b)
	for _, spec := range workloads {
		ra, rb := ma[spec.Name+"/false"], mb[spec.Name+"/false"]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s missing from one set\n", spec.Name)
			code = 1
			continue
		}
		noisy := false
		for i := range ra.CalibMs {
			if ra.CalibMs[i] > 0 && math.Abs(rb.CalibMs[i]-ra.CalibMs[i])/ra.CalibMs[i] > noisyHostShare {
				noisy = true
			}
		}
		if noisy {
			fmt.Fprintf(w, "%s noisy_host calibration %.1f/%.1f ms vs %.1f/%.1f ms\n", spec.Name,
				ra.CalibMs[0], ra.CalibMs[1], rb.CalibMs[0], rb.CalibMs[1])
		}
		for _, ms := range endToEnd {
			va, vb := ra.Metrics[ms.Name], rb.Metrics[ms.Name]
			d := worseBy(ms, va, vb)
			verdict := "ok"
			if d > ms.Bound {
				verdict = "regressed"
				if noisy {
					verdict = "unresolved"
				} else {
					code = 1
				}
			}
			fmt.Fprintf(w, "%s %s %.6g -> %.6g %s (%+.1f%%, bound %.0f%%) %s\n", spec.Name, ms.Name, va, vb, ms.Unit, 100*d, 100*ms.Bound, verdict)
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%s failed operations %d -> %d regressed\n", spec.Name, ra.Failed, rb.Failed)
			code = 1
		}
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "seeds differ (%d vs %d): determinism ledger not compared\n", a.Seed, b.Seed)
		return code
	}
	for _, key := range sortedKeys(ma) {
		ra, rb := ma[key], mb[key]
		if rb == nil {
			continue
		}
		// Untraced runs are time-boxed, so only the pinned leading entries are
		// guaranteed to exist in both; traced passes are fixed-count.
		n := min(len(ra.Ledger), len(rb.Ledger))
		if !ra.Trace {
			n = min(n, ra.Pinned, rb.Pinned)
		}
		diffs := 0
		for i := 0; i < n; i++ {
			if ra.Ledger[i] != rb.Ledger[i] {
				diffs++
				if diffs <= 3 {
					fmt.Fprintf(w, "%s ledger %s differs: %+v vs %+v\n", key, ra.Ledger[i].ID, ra.Ledger[i], rb.Ledger[i])
				}
			}
		}
		if diffs > 0 {
			fmt.Fprintf(w, "%s determinism FAILED: %d of %d ledger entries differ\n", key, diffs, n)
			code = 1
		} else {
			fmt.Fprintf(w, "%s determinism ok (%d ledger entries identical)\n", key, n)
		}
	}
	return code
}
