// Package a is the suppression-policy fixture: a working allow, a reasonless
// allow, a typo'd analyzer name and a stale allow. The last three are
// diagnostics themselves — the tree cannot accumulate unexplained or dead
// suppressions. Two deadexport allows, one working and one stale, are stale
// only in a run of deadexport itself. Expectations live in allow_test.go
// (programmatic, because own-line allow comments cannot also carry want
// annotations).
package a

import (
	"os"
	"time"
)

// GoodAllowed carries a justified suppression that matches a real
// diagnostic — no finding survives.
func GoodAllowed() int64 {
	return time.Now().UnixNano() //lint:allow detrand fixture demonstrating a justified suppression
}

// BadNoReason suppresses without saying why; the reasonless allow is itself
// reported and the wall-clock diagnostic it hoped to cover survives.
func BadNoReason() int64 {
	//lint:allow detrand
	return time.Now().UnixNano()
}

// BadTypo names an analyzer the suite does not have, so it would silently
// suppress nothing; both the typo and the unsuppressed finding are reported.
func BadTypo() int {
	return os.Getpid() //lint:allow detrnd wall clock is fine here
}

// BadStale allows on a line with nothing left to suppress.
func BadStale() int {
	//lint:allow detrand leftover from a removed wall-clock read
	return 42
}

// KeptForTests stands for a test seam: only tests would use it, and its allow
// silences deadexport.
//
//lint:allow deadexport allow_test.go checks this suppression
func KeptForTests() int { return 7 }

// staleDeadexport's allow sits above an unexported func, which deadexport
// never reports.
//
//lint:allow deadexport leftover from when this func was exported
func staleDeadexport() int { return 8 }
