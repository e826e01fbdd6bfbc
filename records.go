package harl

import "harl/internal/tunelog"

// Record is one measured tuning trial of a persistent record log (see the
// record-log section of README.md for the schema).
type Record struct {
	// SchemaVersion is the record schema version (currently 1).
	SchemaVersion int
	// Workload is the workload fingerprint: the workload name plus a stable
	// structural hash, transferable between runs and processes.
	Workload string
	// Target is the platform name the trial was measured on.
	Target string
	// Scheduler is the preset that produced the measurement.
	Scheduler string
	// Steps is the schedule's serialized transform steps; it round-trips
	// byte-identically through a journal append/load cycle.
	Steps string
	// ExecSeconds is the noisy measured execution time.
	ExecSeconds float64
	// Trial is the task-local 1-based trial index.
	Trial int
	// Seed is the run's root random seed.
	Seed uint64
}

func fromInternalRecord(r tunelog.Record) Record {
	return Record{
		SchemaVersion: r.V,
		Workload:      r.Workload,
		Target:        r.Target,
		Scheduler:     r.Scheduler,
		Steps:         r.Steps,
		ExecSeconds:   r.ExecSec,
		Trial:         r.Trial,
		Seed:          r.Seed,
	}
}

// LoadRecords reads a tuning-record log, returning its distinct records in
// file order. Corrupt or truncated lines are skipped (a journal damaged by a
// crash still yields its intact prefix), and exact duplicate appends collapse
// to one record.
func LoadRecords(path string) ([]Record, error) {
	db, err := tunelog.LoadFile(path)
	if err != nil {
		return nil, err
	}
	out := make([]Record, 0, db.Size())
	for _, r := range db.Records() {
		out = append(out, fromInternalRecord(r))
	}
	return out, nil
}

// BestRecord returns the lowest-execution-time record of the log for the
// workload on the target, and whether one exists.
func BestRecord(path string, w Workload, t Target) (Record, bool, error) {
	db, err := tunelog.LoadFile(path)
	if err != nil {
		return Record{}, false, err
	}
	rec, ok := db.Best(w.sg.Fingerprint(), t.plat.Name)
	if !ok {
		return Record{}, false, nil
	}
	return fromInternalRecord(rec), true, nil
}
