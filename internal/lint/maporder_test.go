package lint

import (
	"testing"
)

func TestMaporderFixture(t *testing.T) {
	runFixture(t, newMaporder(fixtureScope), "maporder/a")
}
