// Package tunelog implements the persistent tuning-record journal of the
// HARL reproduction: one JSONL record per measured trial, durable across
// processes, deduplicated and queryable, so tuning results are artifacts
// rather than throwaway process state (the LogFileDatabase pattern of the
// Ansor tooling the paper benchmarks against).
//
// A Record captures everything needed to reuse a measurement later: the
// workload fingerprint (texpr.Subgraph.Fingerprint — stable across processes
// and transferable between structurally identical subgraphs), the target
// platform, the scheduler preset that produced it, the serialized schedule
// transform steps (schedule.MarshalSteps, which round-trips byte-identically
// through UnmarshalSteps against the deterministically regenerated sketch
// list), the noisy measured execution time, the task-local trial index and
// the run seed.
//
// The two halves of the package:
//
//   - Journal appends records to a log file as they are committed. Writers
//     emit records in measurement commit order, which is deterministic for
//     every worker count (see search.Task.MeasureBatch and
//     search.MultiTuner), so journals of equal runs are byte-identical.
//   - Database loads one or more logs into memory, skipping corrupt or
//     truncated lines and records with an unknown schema version,
//     deduplicating exact duplicates, and answering best-record queries per
//     (workload, target) key — the warm-start source for re-runs. Its
//     line loop is ScanFile, which a caller folding records itself (the
//     registry's replay) uses alone: every record in file order, duplicates
//     included.
package tunelog

import (
	"encoding/json"
	"fmt"

	"harl/internal/schedule"
	"harl/internal/sketch"
	"harl/internal/texpr"
)

// SchemaVersion is the record schema version written by this package. Loaders
// skip records with a different version rather than misinterpreting them.
//
//lint:allow deadexport the root serve_test.go and registry/backend_test.go build records with hand-set steps
const SchemaVersion = 1

// Record is one measured tuning trial.
type Record struct {
	// V is the schema version (SchemaVersion at write time).
	V int `json:"v"`
	// Workload is the subgraph fingerprint (texpr.Subgraph.Fingerprint).
	Workload string `json:"workload"`
	// Target is the platform name (hardware.Platform.Name).
	Target string `json:"target"`
	// Scheduler is the preset that produced the measurement.
	Scheduler string `json:"scheduler"`
	// Steps is the schedule's serialized transform steps
	// (schedule.Schedule.MarshalSteps).
	Steps string `json:"steps"`
	// ExecSec is the noisy measured execution time in seconds.
	ExecSec float64 `json:"exec_sec"`
	// Trial is the task-local 1-based trial index of the measurement.
	Trial int `json:"trial"`
	// Seed is the run's root random seed.
	Seed uint64 `json:"seed"`
	// Force marks a registry heal record: when a key's stored best turns out
	// to be poisoned (a foreign record that resolves but no longer
	// reconstructs, possibly with an unbeatably low time), the repairing
	// publish sets Force so the replacement wins unconditionally — and keeps
	// winning across index rebuilds, because the journal replays in order.
	// Tuning journals never set it.
	Force bool `json:"force,omitempty"`
}

// NewRecord builds a record for one committed measurement.
func NewRecord(g *texpr.Subgraph, target, scheduler string, s *schedule.Schedule, execSec float64, trial int, seed uint64) Record {
	return NewRecordFP(g.Fingerprint(), target, scheduler, s, execSec, trial, seed)
}

// NewRecordFP is NewRecord for a caller that holds the workload fingerprint
// rather than the subgraph.
func NewRecordFP(fingerprint, target, scheduler string, s *schedule.Schedule, execSec float64, trial int, seed uint64) Record {
	return Record{
		V:         SchemaVersion,
		Workload:  fingerprint,
		Target:    target,
		Scheduler: scheduler,
		Steps:     s.MarshalSteps(),
		ExecSec:   execSec,
		Trial:     trial,
		Seed:      seed,
	}
}

// Key returns the (workload, target) query key the database indexes on.
func (r Record) Key() string { return r.Workload + "\x00" + r.Target }

// identity is the full-record deduplication key: two appends of the same
// measurement collapse to one database entry.
func (r Record) identity() string {
	return fmt.Sprintf("%d|%s|%s|%s|%s|%x|%d|%d|%v", r.V, r.Workload, r.Target, r.Scheduler, r.Steps, r.ExecSec, r.Trial, r.Seed, r.Force)
}

// MarshalLine renders the record as one JSONL line (no trailing newline).
func (r Record) MarshalLine() ([]byte, error) { return json.Marshal(r) }

// ParseLine parses one journal line. It returns an error for malformed JSON
// or a record that fails basic sanity (empty fingerprint/steps, non-positive
// exec time) so the database loader can skip corrupt lines.
func ParseLine(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("tunelog: malformed line: %w", err)
	}
	if r.Workload == "" || r.Target == "" || r.Steps == "" {
		return Record{}, fmt.Errorf("tunelog: incomplete record %q", line)
	}
	if !(r.ExecSec > 0) {
		return Record{}, fmt.Errorf("tunelog: non-positive exec time in %q", line)
	}
	return r, nil
}

// Schedule reconstructs the record's schedule against the sketch list
// generated for a workload with the record's fingerprint.
func (r Record) Schedule(sketches []*sketch.Sketch) (*schedule.Schedule, error) {
	return schedule.UnmarshalSteps(sketches, r.Steps)
}
