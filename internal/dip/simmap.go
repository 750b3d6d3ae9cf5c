package dip

import (
	"fmt"

	"repro/internal/graph"
)

// SimMap is a simulation map (DESIGN.md §7.5): for each vertex of a
// derived instance — a component, an ear, a block, a copy in h(G,T,ρ) —
// the real nodes that simulate it by holding its labels. A node listed
// twice for one derived vertex holds its labels twice. List the derived
// vertices in order with Add.
type SimMap struct {
	end  []int // derived vertex d's holders are held[end[d-1]:end[d]]
	held []int
}

// NewSimMap returns an empty map with room for n derived vertices and
// holders holder entries in all.
func NewSimMap(n, holders int) *SimMap {
	return &SimMap{end: make([]int, 0, n), held: make([]int, 0, holders)}
}

// Add lists the next derived vertex, held by holders.
func (m *SimMap) Add(holders ...int) {
	m.held = append(m.held, holders...)
	m.end = append(m.end, len(m.held))
}

// holders returns the real nodes that hold derived vertex d's labels.
func (m *SimMap) holders(d int) []int {
	if d == 0 {
		return m.held[:m.end[0]]
	}
	return m.held[m.end[d-1]:m.end[d]]
}

// Local checks that the map only defers labels to where they can be
// seen: every derived vertex d has a holder, and each holder is own[d],
// the real node behind d, or a neighbor of it in g, the graph the
// composite runs on.
func (m *SimMap) Local(g *graph.Graph, own []int) error {
	if len(m.end) != len(own) {
		return fmt.Errorf("dip: simulation map lists %d derived vertices, want %d", len(m.end), len(own))
	}
	for d, o := range own {
		hs := m.holders(d)
		if len(hs) == 0 {
			return fmt.Errorf("dip: derived vertex %d (node %d) has no holder", d, o)
		}
		for _, h := range hs {
			if h != o && !g.HasEdge(h, o) {
				return fmt.Errorf("dip: derived vertex %d (node %d) held by non-neighbor %d", d, o, h)
			}
		}
	}
	return nil
}

// Charges accumulates a composite's label bits per real node and prover
// round over all its stages, each stage's table charged through the
// stage's simulation map.
type Charges struct {
	// Bits[r][v] is the label bits charged to real node v in round r.
	Bits [][]int
	// Total sums the label bits the stages sent, each label once
	// however many nodes hold it.
	Total int
}

// NewCharges returns an empty accumulator for n real nodes over rounds
// prover rounds.
func NewCharges(n, rounds int) *Charges {
	c := &Charges{Bits: make([][]int, rounds)}
	for r := range c.Bits {
		c.Bits[r] = make([]int, n)
	}
	return c
}

// Add charges one stage that sent total label bits: bits[r][d] goes to
// every holder of derived vertex d in m, or to node d itself when m is
// nil (a stage run on the real graph). Rounds past the accumulator's are
// dropped.
func (c *Charges) Add(m *SimMap, bits [][]int, total int) {
	c.Total += total
	for r, row := range bits[:min(len(bits), len(c.Bits))] {
		for d, b := range row {
			if m == nil {
				c.Bits[r][d] += b
				continue
			}
			for _, v := range m.holders(d) {
				c.Bits[r][v] += b
			}
		}
	}
}

// ProofSizeBits returns the largest per-node per-round charge: the
// composite's proof size.
func (c *Charges) ProofSizeBits() int {
	size := 0
	for _, row := range c.Bits {
		for _, b := range row {
			size = max(size, b)
		}
	}
	return size
}
