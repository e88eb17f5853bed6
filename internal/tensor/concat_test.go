package tensor

import "testing"

func TestConcatSplitChannels(t *testing.T) {
	g := NewRNG(1)
	a := Normal(g, 0, 1, 2, 3, 4, 5)
	b := Normal(g, 0, 1, 2, 2, 4, 5)
	cat := ConcatChannels(a, b)
	if cat.Dim(0) != 2 || cat.Dim(1) != 5 || cat.Dim(2) != 4 || cat.Dim(3) != 5 {
		t.Fatalf("concat shape %v", cat.Shape())
	}
	// Content placement: channel 3 of cat = channel 0 of b.
	if cat.At(1, 3, 2, 2) != b.At(1, 0, 2, 2) {
		t.Fatalf("concat misplaced data")
	}
}

func TestConcatValidation(t *testing.T) {
	g := NewRNG(2)
	a := Normal(g, 0, 1, 1, 2, 3, 3)
	b := Normal(g, 0, 1, 1, 2, 4, 3) // spatial mismatch
	assertPanics(t, func() { ConcatChannels(a, b) })
	assertPanics(t, func() { ConcatChannels() })
	assertPanics(t, func() { ConcatChannels(Normal(g, 0, 1, 2, 3)) })
}
