package a

import "testing"

func TestSeams(t *testing.T) {
	if TestOnly() != 3 || Seam() != 4 {
		t.Fatal("fixture seams changed")
	}
}
