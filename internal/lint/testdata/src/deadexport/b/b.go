// Command b is the main half of the deadexport fixture: its uses of package a
// count, and its own exports are never reported.
package main

import (
	"fmt"

	"harl/internal/lint/testdata/src/deadexport/a"
)

// Unused is exported from a main package, so it is not reported.
func Unused() {}

// Local is exported from a main package and used only there: not reported
// either.
func Local() int { return a.SharedFunc() + a.SharedVar + a.SharedConst + a.Stale() }

func main() {
	var s a.Shape = &a.Square{Side: 2}
	fmt.Println(s.Area(), a.UsedByB(), int(a.Code(1)), Local())
}
