package search

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"harl/internal/schedule"
	"harl/internal/workload"
)

// TestHARLRoundSequencePinned makes the window step's order of operations an
// executable assertion. RunRound steps all live tracks through one batched
// policy query, applies and scores them, values the successors in one batched
// critic query and only then observes — a reordering of the per-track loop it
// replaced that must not move a single draw or float. The hash covers every
// measured schedule, its execution time and trial index, the critical-step
// positions and the simulated search clock of three GEMM-1024³ rounds at seed
// 1; it was pinned on the per-track loop (the commit before the batched step).
func TestHARLRoundSequencePinned(t *testing.T) {
	const want = "0a4cdef74c30539b7876e7251eed8eb5f718120ec2da130feb12f0fc339968d7"
	task, _ := newTestTask(t, workload.GEMM("g", 1, 1024, 1024, 1024), 1)
	sum := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		sum.Write(b[:])
	}
	task.OnMeasure = func(s *schedule.Schedule, execSec float64, trial int) {
		sum.Write([]byte(s.MarshalSteps()))
		word(math.Float64bits(execSec))
		word(uint64(trial))
	}
	h := NewHARL(DefaultHARLConfig())
	for round := 0; round < 3; round++ {
		h.RunRound(task, 16)
	}
	for _, p := range task.TrackPositions {
		word(math.Float64bits(p))
	}
	word(math.Float64bits(task.Meas.CostSec()))
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("round sequence hash %s want %s (%d trials, %d updates)", got, want, task.Trials, h.Agent(task).Updates())
	}
}
