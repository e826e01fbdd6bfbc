package main

import (
	"testing"

	"harl/internal/lint/testdata/src/deadexport/a"
)

func TestLocalAndBTest(t *testing.T) {
	if a.LocalAndBTest() != 12 {
		t.Fatal("fixture value changed")
	}
}
