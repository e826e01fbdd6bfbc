package harl

import "harl/internal/fleet"

// Fleet is an open connection to a pool of harl-worker measurement daemons:
// the distributed-measurement layer. Attach one to a run with
// Options.FleetPool; a daemon shares one Fleet across every run it serves.
// The pool health-checks its workers in the background, ejects ones that
// keep failing, readmits them when they recover, and routes each task only
// to workers that serve its target platform — a heterogeneous fleet can hold
// cpu-only and gpu-only workers side by side. A Fleet with every worker down
// still serves: batches fall back to in-process measurement with identical
// results.
type Fleet struct {
	pool *fleet.Pool
}

// DialFleet opens a fleet over the worker endpoints (30s batch timeout, 2
// retries, 2s health-check period). Endpoints are "host:port" or full URLs.
// Dialing succeeds even while every worker is unreachable (they are probed
// and admitted in the background); it fails only on an empty endpoint list.
func DialFleet(endpoints []string) (*Fleet, error) {
	p, err := fleet.NewPool(endpoints, fleet.Config{})
	if err != nil {
		return nil, err
	}
	return &Fleet{pool: p}, nil
}

// Close stops the fleet's health-check loop. Stats stay readable.
func (f *Fleet) Close() { f.pool.Close() }

// FleetStats is a snapshot of a fleet's dispatch counters — the numbers
// behind the harl_fleet_* series at harl-serve's /metrics.
type FleetStats = fleet.Stats

// Stats snapshots the fleet's counters.
func (f *Fleet) Stats() FleetStats { return f.pool.Stats() }
