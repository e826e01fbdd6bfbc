package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to the tables the program
// emits from: same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q/%q, the program %q/%q", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, file, code []metricSpec) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(file), len(code))
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], code[i])
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	seen := map[string]bool{}
	setup := false
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric name %q is used twice", s.Name)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better is %q", s.Name, s.Better)
		}
		setup = setup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == "lower")
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}
}

// TestSmoke runs every workload at toy scale, untraced and traced: every
// output check must pass, every metric of the run's mode must be emitted, every
// end-to-end metric must be non-zero, and a result set compared with itself
// must come out all ok.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	set := &resultSet{Seed: 1, Seconds: 0}
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			r := w.run(runConfig{seed: 1, seconds: 0, trace: trace, outDir: out, toy: true})
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, r.Failed, r.Attempted, r.Failures)
			}
			line, err := contractLine(r)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
				continue
			}
			var got struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: result line does not parse: %v", w.Name, err)
			}
			if want := specsFor(trace); len(got.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result line has %d metrics, want %d", w.Name, trace, len(got.Metrics), len(want))
			}
			if !trace {
				for name, v := range got.Metrics {
					if v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
					}
				}
			}
			if trace {
				if _, err := os.Stat(out + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
			set.Runs = append(set.Runs, r)
		}
	}
	var buf bytes.Buffer
	if code := compareSets(set, set, &buf); code != 0 {
		t.Errorf("a set compared with itself exits %d:\n%s", code, buf.String())
	}
	if s := buf.String(); strings.Contains(s, "regressed") || strings.Contains(s, "unresolved") || strings.Contains(s, "FAILED") {
		t.Errorf("a set compared with itself is not all ok:\n%s", s)
	}
	left, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if strings.HasPrefix(e.Name(), "tmp-") {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}
}
