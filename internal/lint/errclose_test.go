package lint

import (
	"testing"
)

func TestErrcloseFixture(t *testing.T) {
	runFixture(t, newErrclose(fixtureScope), "errclose/a")
}
