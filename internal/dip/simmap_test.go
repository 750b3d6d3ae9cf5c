package dip

import (
	"slices"
	"testing"
)

// TestSimMapLocal checks the locality check itself on the path
// 0-1-2-3: deferring to a neighbor passes, while deferring a vertex to
// a non-neighbor, or leaving it unheld, fails.
func TestSimMapLocal(t *testing.T) {
	g := pathGraph(4)
	own := []int{0, 1, 2, 3}
	build := func(holders ...[]int) *SimMap {
		m := new(SimMap)
		for _, hs := range holders {
			m.Add(hs...)
		}
		return m
	}
	if err := build([]int{1}, []int{1}, []int{1, 3}, []int{3}).Local(g, own); err != nil {
		t.Fatalf("neighbor deferral refused: %v", err)
	}
	if err := build([]int{3}, []int{1}, []int{2}, []int{3}).Local(g, own); err == nil {
		t.Fatal("deferral of vertex 0 to non-neighbor 3 passed")
	}
	if err := build([]int{0}, nil, []int{2}, []int{3}).Local(g, own); err == nil {
		t.Fatal("unheld vertex passed")
	}
	if err := build([]int{0}).Local(g, own); err == nil {
		t.Fatal("map of the wrong length passed")
	}
}

// TestChargesThroughMap checks the accumulator's arithmetic: a stage
// on the real graph charges each node its own bits, a mapped stage
// charges every holder (a node listed twice twice), rounds past the
// accumulator's are dropped, and Total counts each stage once.
func TestChargesThroughMap(t *testing.T) {
	c := NewCharges(3, 2)
	c.Add(nil, [][]int{{1, 2, 3}, {4, 5, 6}, {100, 100, 100}}, 21)
	m := new(SimMap)
	m.Add(0, 2)
	m.Add(1, 1)
	c.Add(m, [][]int{{10, 20}}, 30)
	if want := [][]int{{11, 42, 13}, {4, 5, 6}}; !slices.EqualFunc(c.Bits, want, slices.Equal) {
		t.Fatalf("charges %v, want %v", c.Bits, want)
	}
	if c.Total != 51 || c.ProofSizeBits() != 42 {
		t.Fatalf("total %d proof size %d, want 51 and 42", c.Total, c.ProofSizeBits())
	}
}
