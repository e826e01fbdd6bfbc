package lint

import (
	"testing"
)

func TestAtomicwriteFixture(t *testing.T) {
	runFixture(t, newAtomicwrite(fixtureScope), "atomicwrite/a")
}
