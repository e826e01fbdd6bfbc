package harl

import (
	"fmt"

	"harl/internal/costmodel"
	"harl/internal/pretrain"
	"harl/internal/texpr"
	"harl/internal/tunelog"
)

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

// TrainStats summarizes an offline cost-model fit (TrainModel): the journal
// records replayed and the workloads they cover, the records skipped, and the
// resulting training-set size and whether it trained.
type TrainStats = pretrain.Stats

// TrainModel fits a cost model offline from a tuning-record log — replaying
// every record that matches one of the workloads on the target, regenerating
// features deterministically from the serialized schedule steps — and writes
// the versioned checkpoint artifact to outPath. The artifact feeds
// Options.ModelIn (or another TrainModel run's journal feeds
// Options.PretrainFrom directly). Training is deterministic: the same
// journal always produces a byte-identical checkpoint.
func TrainModel(logPath string, ws []Workload, t Target, outPath string) (TrainStats, error) {
	if len(ws) == 0 {
		return TrainStats{}, fmt.Errorf("harl: no workloads to train over")
	}
	db, err := tunelog.LoadFile(logPath)
	if err != nil {
		return TrainStats{}, err
	}
	graphs := make([]*texpr.Subgraph, len(ws))
	for i, w := range ws {
		graphs[i] = w.sg
	}
	m, st := pretrain.FitModel(db, graphs, t.plat.Name, costmodel.DefaultParams())
	if st.Records == 0 {
		return st, fmt.Errorf("harl: no records in %q match the given workloads on %s", logPath, t.Name())
	}
	return st, costmodel.SaveFile(outPath, m)
}
