// Command harl-worker runs a measurement worker: one node of the distributed
// measurement fleet a HARL coordinator (harl-tune -fleet or harl-serve
// -fleet) fans its hardware-measurement batches out to.
//
// Usage:
//
//	harl-worker -addr :9090
//	harl-worker -addr :9090 -targets gpu            # gpu-only node
//	harl-worker -addr :9090 -eval-workers 8
//
// Endpoints:
//
//	POST /v1/measure  execute one measure batch (fleet wire protocol v1)
//	GET  /healthz     liveness + served target platforms + work counters
//
// A worker is stateless: every batch carries the workload structure, target,
// noise seed, serialized schedules and repetition indices, and the worker
// reproduces exactly the values the coordinator's in-process measurer would
// compute — so workers may be added, restarted or killed at any time without
// affecting tuning results (the coordinator retries and falls back
// in-process). Error responses use the same v1 envelope as harl-serve:
// {"error":{"code":"...","message":"..."}}.
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

	"harl/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":9090", "HTTP listen address")
	targets := flag.String("targets", "", "comma-separated target platforms this worker measures for (e.g. \"cpu\" or \"cpu,gpu\"); empty serves all")
	evalWorkers := flag.Int("eval-workers", 0, "goroutines evaluating trials within a batch (<= 0 selects GOMAXPROCS)")
	flag.Parse()

	var targetList []string
	for _, t := range strings.Split(*targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targetList = append(targetList, t)
		}
	}
	worker, err := fleet.NewWorker(targetList, *evalWorkers)
	if err != nil {
		fatal(err)
	}

	srv := &http.Server{Addr: *addr, Handler: worker.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("harl-worker: listening on %s (targets %s)\n", *addr, strings.Join(worker.Targets(), ","))

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Println("harl-worker: draining (signal received)")
	}

	// Graceful drain: finish in-flight batches, then exit. A coordinator
	// losing this worker retries elsewhere or measures in-process, so a hard
	// deadline is safe.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "harl-worker: http shutdown:", err)
	}
	fmt.Printf("harl-worker: drained (%d batches, %d trials served)\n", worker.Batches(), worker.Trials())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "harl-worker:", err)
	os.Exit(1)
}
