// Package pretrain trains a task's cost model from a persistent tuning
// journal (internal/tunelog) before its search starts — the value-function
// transfer idea of Steiner et al.: a model trained on prior measurements cuts
// the trials a new run needs. The journal is the one artifact: nothing
// derived from it is stored, since the same journal always rebuilds the same
// model.
//
// Features are not stored in the journal; they are regenerated exactly. A
// record carries the schedule's serialized transform steps, sketch generation
// is deterministic, and schedule.UnmarshalSteps reconstructs the identical
// schedule against the regenerated sketch list — so Features() of the replay
// equals Features() of the original measurement bit-for-bit, and the
// pretrained model is byte-reproducible from the journal alone.
//
// Replay order is the journal's load order (itself deterministic for every
// worker count), which makes pretraining part of the determinism contract:
// same journal → same model → same search trajectory.
package pretrain

import (
	"harl/internal/search"
	"harl/internal/tunelog"
)

// SeedTask replays every record of db matching the task's (workload
// fingerprint, target) key into the task's cost model — in journal order —
// and refits once, so the first engine round starts from a model that knows
// the workload. Unlike warm-starting, nothing is seeded into the task's best
// or measured set: pretraining informs the reward signal only, and the
// engines still measure whatever they pick. It returns the number of records
// replayed.
func SeedTask(db *tunelog.Database, t *search.Task) int {
	fp, target := t.Graph.Fingerprint(), t.Plat.Name
	n := 0
	for _, rec := range db.Records() {
		if rec.Workload != fp || rec.Target != target {
			continue
		}
		s, err := rec.Schedule(t.Sketches)
		if err != nil {
			continue
		}
		t.PretrainSample(s, rec.ExecSec)
		n++
	}
	if n > 0 {
		t.FinishPretrain()
	}
	return n
}
