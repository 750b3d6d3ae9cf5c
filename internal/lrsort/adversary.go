package lrsort

import "repro/internal/graph"

// InnerBlockLiar is the canonical LR-sorting adversary: it follows the
// honest strategy except that every backward outer-block edge is
// relabeled as inner-block in round 1, betting on an r_b nonce
// collision between the two blocks (probability 1/p0 per edge). Later
// rounds ride on the honest machinery: the reclassified edges
// contribute nothing to the C multisets, matching the lie. It is the
// measured face of the protocol's 1/polylog n soundness and the knob
// the soundness-exponent ablation turns.
type InnerBlockLiar struct{ engineProver }

// NewInnerBlockLiar builds the adversary for a (no-)instance.
func NewInnerBlockLiar(p Params, inst *Instance) *InnerBlockLiar {
	return &InnerBlockLiar{engineProver{p: p, inst: inst, lie: func(h *Honest) {
		for i, de := range inst.Edges {
			if p.BlockOf(inst.Pos[de.Tail]) > p.BlockOf(inst.Pos[de.Head]) {
				h.R1Edge[i] = Round1Edge{Inner: true}
			}
		}
	}}}
}

// BackwardEdgeInstance crafts the no-instance the liar is strongest on:
// a Hamiltonian path plus one backward edge whose in-block indices
// increase (so the order check passes and only the nonce can catch it).
// Returns nil if n is too small to host the pattern.
func BackwardEdgeInstance(p Params, perm []int) *Instance {
	n := len(perm)
	if p.NumBlocks < 4 || 1*p.B+4 >= n || 3*p.B+2 >= n {
		return nil
	}
	pos := make([]int, n)
	for q, v := range perm {
		pos[v] = q
	}
	g := graph.New(n)
	for q := 0; q+1 < n; q++ {
		g.MustAddEdge(perm[q], perm[q+1])
	}
	tailQ := 3*p.B + 2
	headQ := 1*p.B + 4
	g.MustAddEdge(perm[tailQ], perm[headQ])
	return &Instance{
		G:     g,
		Pos:   pos,
		Edges: []DirectedEdge{{Tail: perm[tailQ], Head: perm[headQ]}},
	}
}
