// Command harl-bench regenerates the paper's tables and figures. Every
// experiment additionally leaves a machine-readable BENCH_<exp>.json summary
// (resolved configuration, measurement accounting, rendered rows — all
// seed-deterministic, no timing) written under -out; the elapsed time goes to
// stdout only.
//
// Usage:
//
//	harl-bench -exp fig5                # scaled budget (minutes)
//	harl-bench -exp tab4 -scale 0.1     # larger network budget
//	harl-bench -exp fig7a -budget 1000  # paper-scale operator budget
//	harl-bench -exp all                 # the whole suite
//	harl-bench -full -exp fig5          # paper-scale everything (hours)
//	harl-bench -exp fig5 -out bench/    # JSON summaries under bench/
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"harl"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1a fig1b fig1c tab1 fig5 fig6 fig7a fig7b fig8 fig9 tab4 fig10 tab7 tab8) or 'all'")
	budget := flag.Int("budget", 0, "operator measurement-trial budget (0 = preset default)")
	scale := flag.Float64("scale", 0, "network budget scale relative to the paper's 12k/22k/16k (0 = preset default)")
	seed := flag.Uint64("seed", 0, "random seed (0 = preset default)")
	configs := flag.Int("configs", 0, "Table-6 configurations per operator category, 1..4 (0 = preset default)")
	full := flag.Bool("full", false, "use the paper-scale preset (hours of runtime)")
	workers := flag.Int("workers", 0, "tuning worker pool size (0 = preset default, -1 = all CPU cores); outputs are identical for every worker count")
	out := flag.String("out", ".", "directory for the per-experiment BENCH_<exp>.json summaries (empty = skip writing them)")
	flag.Parse()

	// Validate every enumerated flag up front, so a typo exits non-zero with
	// the valid-value list before any experiment burns minutes of tuning.
	if *exp != "all" && !slices.Contains(harl.Experiments(), *exp) {
		fatal(fmt.Errorf("unknown experiment %q (want all, %s)", *exp, strings.Join(harl.Experiments(), ", ")))
	}
	if *configs < 0 || *configs > 4 {
		fatal(fmt.Errorf("-configs must be 0 (preset default) or 1..4, got %d", *configs))
	}
	if *scale < 0 {
		fatal(fmt.Errorf("-scale must be >= 0, got %g", *scale))
	}
	if *budget < 0 {
		fatal(fmt.Errorf("-budget must be >= 0, got %d", *budget))
	}

	cfg := harl.ExperimentConfig{
		Seed:               *seed,
		OperatorBudget:     *budget,
		NetworkBudgetScale: *scale,
		ConfigsPerCategory: *configs,
		Workers:            *workers,
		Full:               *full,
	}

	ids := []string{*exp}
	if *exp == "all" {
		// fig6 and fig9 share runs with fig5/fig8; run each grid once.
		ids = []string{"tab1", "fig1a", "fig1b", "fig1c", "fig5", "fig7a", "fig7b", "fig8", "tab4", "fig10", "tab7", "tab8"}
	}
	for _, id := range ids {
		fmt.Printf("=== %s ===\n", id)
		var buf bytes.Buffer
		w := io.Writer(os.Stdout)
		if *out != "" {
			w = io.MultiWriter(os.Stdout, &buf)
		}
		start := time.Now()
		if err := harl.RunExperiment(id, cfg, w); err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("(%s in %v)\n\n", id, elapsed.Round(time.Millisecond))
		if *out != "" {
			path, err := harl.WriteBenchSummary(*out, id, cfg, buf.String())
			if err != nil {
				fatal(err)
			}
			fmt.Printf("summary: %s\n\n", path)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harl-bench:", err)
	os.Exit(1)
}
