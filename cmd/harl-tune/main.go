// Command harl-tune tunes a single tensor operator or an end-to-end network
// with a chosen scheduler preset and prints the outcome.
//
// Usage:
//
//	harl-tune -op gemm -shape 1024,1024,1024 -scheduler harl -trials 500
//	harl-tune -op c2d  -shape 56,56,64,64,3,1,1 -batch 16
//	harl-tune -network bert -batch 1 -trials 600 -scheduler ansor
//
// Every measured trial can be journaled to a persistent record log, a later
// run can warm-start from it, and the cost model can be pretrained offline or
// checkpointed across runs (see the cost-model section of README.md):
//
//	harl-tune -op gemm -shape 1024,1024,1024 -log tune.jsonl
//	harl-tune -op gemm -shape 1024,1024,1024 -resume tune.jsonl -trials -1
//	harl-tune -op gemm -shape 1024,1024,1024 -pretrain tune.jsonl
//	harl-tune -op gemm -shape 1024,1024,1024 -model-in model.json -model-out model.json
//
// With -registry the CLI shares the harl-serve daemon's best-schedule cache:
// an already-tuned (workload, target, scheduler) returns instantly with zero
// measured trials, and a fresh tune publishes its best for the next caller:
//
//	harl-tune -op gemm -shape 256,256,256 -registry ./registry
//
// -progress streams one line per committed round/wave to stderr (the same
// event stream harl-serve exposes over SSE), and -plateau-window with
// -plateau-improve stop a flatlined search early through the
// checkpoint-on-cancel path:
//
//	harl-tune -op gemm -shape 64,64,64 -progress -plateau-window 8 -plateau-improve 0.005
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"harl"
)

func main() {
	op := flag.String("op", "", "operator kind: gemm, c1d, c2d, c3d, t2d")
	shape := flag.String("shape", "", "comma-separated operator shape (gemm: M,K,N; c2d: H,W,Cin,Cout,K,stride,pad; ...)")
	network := flag.String("network", "", "network to tune end-to-end: bert, resnet50, mobilenetv2")
	batch := flag.Int("batch", 1, "batch size")
	target := flag.String("target", "cpu", "target platform: "+strings.Join(harl.Targets(), ", "))
	scheduler := flag.String("scheduler", "harl", "scheduler preset: "+strings.Join(harl.Schedulers(), ", "))
	trials := flag.Int("trials", 320, "measurement-trial budget (negative = no new measurements, replay the -resume cache only)")
	seed := flag.Uint64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "tuning worker pool size (0 = 1, -1 = all CPU cores); at every size a PPO update also trains its critic on a second goroutine; results are identical for every worker count")
	logPath := flag.String("log", "", "append one JSONL tuning record per measured trial to this file")
	resume := flag.String("resume", "", "warm-start from the best cached schedules of this record log (may equal -log)")
	pretrainLog := flag.String("pretrain", "", "pretrain the cost model by replaying this record log before search (model-only; may equal -log or -resume)")
	modelIn := flag.String("model-in", "", "load a cost-model checkpoint (from -model-out or harl-train) before search")
	modelOut := flag.String("model-out", "", "save the trained cost-model checkpoint after tuning")
	registryDir := flag.String("registry", "", "best-schedule registry directory shared with harl-serve: resolve before tuning (a hit costs 0 trials) and publish the best after")
	registryLayout := flag.String("registry-layout", "auto", "registry storage layout: auto (a new registry is sharded, an existing single-file one opens as it is) or sharded (migrates a single-file registry in place)")
	fleetList := flag.String("fleet", "", "comma-separated harl-worker endpoints to fan measurement batches out to (results are byte-identical to in-process measurement; a dead worker falls back in-process)")
	progress := flag.Bool("progress", false, "stream one progress line per committed round/wave to stderr — the same event stream harl-serve serves over SSE")
	plateauWindow := flag.Int("plateau-window", 0, "stop the search early when the best-so-far trajectory improves by no more than -plateau-improve across this many waves — rounds of an operator run, allocation decisions of a network run, however many subgraphs each advances (0 disables)")
	plateauImprove := flag.Float64("plateau-improve", 0, "minimum relative improvement (0.01 = 1%) over the plateau window to keep searching")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
	flag.Parse()

	// Validate every name-typed flag up front, so a typo exits non-zero with
	// the valid-name list instead of a bare error mid-run.
	tgt, err := harl.TargetByName(*target)
	if err != nil {
		fatal(err)
	}
	if _, err := harl.SchedulerByName(*scheduler); err != nil {
		fatal(err)
	}
	if *plateauWindow < 0 || *plateauImprove < 0 {
		fatal(fmt.Errorf("-plateau-window and -plateau-improve must be >= 0"))
	}
	if *plateauImprove > 0 && *plateauWindow == 0 {
		fatal(fmt.Errorf("-plateau-improve needs -plateau-window > 0 to take effect"))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	opts := harl.Options{Scheduler: *scheduler, Trials: *trials, Seed: *seed, Workers: *workers,
		RecordLog: *logPath, ResumeFrom: *resume,
		PretrainFrom: *pretrainLog, ModelIn: *modelIn, ModelOut: *modelOut,
		Plateau: harl.Plateau{Window: *plateauWindow, MinImprovement: *plateauImprove}}
	if *progress {
		opts.OnProgress = func(e harl.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "progress wave=%d task=%s alloc=%d trials=%d/%d best=%.4fms run=%.4fms search=%.0fs\n",
				e.Wave, e.Workload, e.Allocation, e.TaskTrials, e.TotalTrials,
				e.BestExecSeconds*1e3, e.RunBestSeconds*1e3, e.SearchSeconds)
		}
	}
	if *registryDir != "" {
		reg, err := harl.OpenRegistryOptions(*registryDir, harl.RegistryOptions{Layout: *registryLayout})
		if err != nil {
			fatal(err)
		}
		defer reg.Close()
		opts.Registry = reg
	} else if *registryLayout != "auto" {
		fatal(fmt.Errorf("-registry-layout needs -registry"))
	}
	var fleetPool *harl.Fleet
	if *fleetList != "" {
		fleetPool, err = harl.DialFleet(strings.Split(*fleetList, ","))
		if err != nil {
			fatal(err)
		}
		defer func() {
			fleetPool.Close()
			s := fleetPool.Stats()
			fmt.Fprintf(os.Stderr, "fleet: %d/%d workers healthy, %d batches (%d trials) dispatched, %d retries, %d ejections, %d fallbacks\n",
				s.Healthy, s.Workers, s.BatchesDispatched, s.TrialsDispatched, s.Retries, s.Ejections, s.Fallbacks)
		}()
		opts.FleetPool = fleetPool
	}

	if *network != "" {
		res, err := harl.TuneNetwork(*network, *batch, tgt, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s on %s with %s: estimated %.3f ms, measured %.3f ms (%d trials, %.0f s search)\n",
			res.Network, tgt.Name(), *scheduler, res.EstimatedSeconds*1e3, res.MeasuredSeconds*1e3, res.Trials, res.SearchSeconds)
		if res.CacheHits > 0 {
			fmt.Printf("registry served %d of %d subgraph(s) from %s\n", res.CacheHits, len(res.Breakdown), *registryDir)
		}
		if res.Cancelled {
			fmt.Println("run cancelled: partial bests shown; the record log and checkpoint are resumable")
		}
		if res.PlateauStopped {
			fmt.Printf("stopped early on plateau after %d trials: no further improvement expected\n", res.Trials)
		}
		if res.WarmStarted > 0 {
			fmt.Printf("warm-started %d subgraph(s) from %s\n", res.WarmStarted, *resume)
		}
		fmt.Printf("cost model: %d training samples across %d subgraph models, %d refits, pretrained %d task(s)\n",
			res.CostModelSamples, len(res.Breakdown), res.CostModelRefits, res.Pretrained)
		if *modelOut != "" {
			fmt.Printf("cost model checkpoint (merged over the compatible subgraphs): %s\n", *modelOut)
		}
		fmt.Printf("%-18s %-7s %-12s %-8s %s\n", "subgraph", "weight", "exec(us)", "trials", "contribution")
		for _, b := range res.Breakdown {
			fmt.Printf("%-18s %-7d %-12.1f %-8d %.1f%%\n", b.Name, b.Weight, b.ExecSeconds*1e6, b.Trials, b.Contribution*100)
		}
		return
	}

	dims, err := harl.ParseShape(*shape)
	if err != nil {
		fatal(err)
	}
	if *op == "" {
		fatal(fmt.Errorf("missing -op (and no -network given)"))
	}
	w, err := harl.OperatorWorkload(*op, dims, *batch)
	if err != nil {
		fatal(err)
	}

	res, err := harl.TuneOperator(w, tgt, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s on %s with %s:\n", w.Name(), tgt.Name(), res.Scheduler)
	if res.CacheHit {
		fmt.Printf("  registry hit from %s: served without measuring a trial\n", *registryDir)
	}
	if res.Cancelled {
		fmt.Println("  run cancelled: partial best shown; the record log and checkpoint are resumable")
	}
	if res.PlateauStopped {
		fmt.Printf("  stopped early on plateau after %d trials: no further improvement expected\n", res.Trials)
	}
	if res.WarmStarted {
		fmt.Printf("  warm-started from %s\n", *resume)
	}
	fmt.Printf("  best program: %.4f ms (%.1f GFLOP/s)\n", res.ExecSeconds*1e3, res.GFLOPS)
	fmt.Printf("  trials: %d, simulated search time: %.0f s\n", res.Trials, res.SearchSeconds)
	fmt.Printf("  cost model: %d training samples, %d refits, pretrained=%v\n",
		res.CostModelSamples, res.CostModelRefits, res.Pretrained)
	if *modelOut != "" && !res.CacheHit {
		fmt.Printf("  cost model checkpoint: %s\n", *modelOut)
	}
	fmt.Printf("  schedule: %s\n", res.BestSchedule)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harl-tune:", err)
	os.Exit(1)
}
