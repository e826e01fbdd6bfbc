package lint

import (
	"testing"
)

func TestWireenvelopeFixture(t *testing.T) {
	runFixture(t, newWireenvelope(fixtureScope), "wireenvelope/a")
}
