// Command harl-serve runs the HARL tuner as a long-lived HTTP service: a
// persistent best-schedule registry in front of a coalescing tuning-job
// queue, so the first request for a workload pays the search and every later
// identical request costs a lookup.
//
// Usage:
//
//	harl-serve -addr :8080 -registry ./registry
//	harl-serve -registry ./registry -import examples/pretrain/gemm-cpu.jsonl
//
// Endpoints (see the "Serving schedules" section of README.md):
//
//	POST   /v1/tune      tune (registry hit → 200 instantly; miss → 202 job;
//	                     identical concurrent requests coalesce into one job)
//	GET    /v1/schedule  look up a best schedule without tuning
//	GET    /v1/jobs[/{id}]   job listing / status
//	GET    /v1/jobs/{id}/events  live progress as SSE (replay, then tail)
//	DELETE /v1/jobs/{id} cancel a job (the session checkpoints)
//	GET    /healthz      liveness
//	GET    /metrics      queue depth, hit rate, trial counters
//
// By default the daemon applies a plateau early-stop policy to every job
// (-plateau-window / -plateau-improve; requests override per job with
// plateau_window, negative to opt out): a search whose best-so-far
// trajectory flatlines stops early and publishes its partial best instead
// of burning the rest of its trial budget.
//
// On SIGINT/SIGTERM the daemon drains gracefully: intake stops, running
// sessions are cancelled (each checkpoints and publishes its partial best —
// publishing keeps better incumbents, so partials never weaken a key) and
// the registry's journal handle is released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"harl"
	"harl/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	registryDir := flag.String("registry", "registry", "best-schedule registry directory (created if missing)")
	registryLayout := flag.String("registry-layout", "auto", "registry storage layout: auto (a new registry is sharded, an existing single-file one opens as it is) or sharded (migrates a single-file registry in place)")
	importLog := flag.String("import", "", "seed the registry from this tuning-record journal before serving")
	workers := flag.Int("workers", 2, "queue workers draining tuning jobs concurrently")
	plateauWindow := flag.Int("plateau-window", 6, "default plateau early stop: end a job's search when its best-so-far trajectory improves by no more than -plateau-improve across this many waves — rounds of an operator job, allocation decisions of a network job, however many subgraphs each advances (0 disables; requests override with plateau_window)")
	plateauImprove := flag.Float64("plateau-improve", 0.005, "default minimum relative improvement (0.005 = 0.5%) over the plateau window to keep searching")
	fleetList := flag.String("fleet", "", "comma-separated harl-worker endpoints shared by every tuning session (bit-identical to in-process measurement; dead workers fall back in-process); counters at /metrics as harl_fleet_*")
	flag.Parse()

	if *workers < 1 {
		fatal(fmt.Errorf("-workers must be >= 1, got %d", *workers))
	}
	if *plateauWindow < 0 || *plateauImprove < 0 {
		fatal(fmt.Errorf("-plateau-window and -plateau-improve must be >= 0"))
	}
	if *plateauWindow == 0 {
		// -plateau-window 0 disables the default policy outright; reject an
		// explicitly-set positive threshold that would be silently dropped
		// with it (the flag's own default does not count — disabling stays
		// one flag — and an explicit 0 expresses no policy to drop).
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "plateau-improve" && *plateauImprove > 0 {
				fatal(fmt.Errorf("-plateau-improve needs -plateau-window > 0 to take effect"))
			}
		})
	}
	reg, err := harl.OpenRegistryOptions(*registryDir, harl.RegistryOptions{Layout: *registryLayout})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("harl-serve: registry %s (%s layout)\n", *registryDir, reg.Layout())
	if *importLog != "" {
		improved, err := reg.ImportJournal(*importLog)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("harl-serve: imported %s (%d improvements, %d keys)\n", *importLog, improved, reg.Len())
	}

	var fleetPool *harl.Fleet
	if *fleetList != "" {
		fleetPool, err = harl.DialFleet(strings.Split(*fleetList, ","))
		if err != nil {
			fatal(err)
		}
		s := fleetPool.Stats()
		fmt.Printf("harl-serve: fleet %s (%d/%d workers healthy)\n", *fleetList, s.Healthy, s.Workers)
	}

	queue := service.NewQueue(&service.HarlTuner{
		Registry:       reg,
		DefaultPlateau: harl.Plateau{Window: *plateauWindow, MinImprovement: *plateauImprove},
		Fleet:          fleetPool,
	}, *workers)
	handler := service.NewServer(queue, reg)
	if fleetPool != nil {
		handler.SetFleet(fleetPool)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("harl-serve: listening on %s (registry %s, %d keys, %d workers)\n",
		*addr, *registryDir, reg.Len(), *workers)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Println("harl-serve: draining (signal received)")
	}

	// Graceful drain: stop accepting HTTP, cancel tuning sessions (each
	// checkpoints), release the registry.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "harl-serve: http shutdown:", err)
	}
	queue.Shutdown()
	if fleetPool != nil {
		fleetPool.Close()
	}
	if err := reg.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("harl-serve: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harl-serve:", err)
	os.Exit(1)
}
