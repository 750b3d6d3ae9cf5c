package lrsort

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// DirectedEdge is a non-path edge of the instance, directed Tail -> Head.
type DirectedEdge struct {
	Tail, Head int
}

// Instance is the LR-sorting input in prover-friendly form: the host
// graph, the path order, and the directed non-path edges. Pos is the
// ground-truth path position of each vertex (the distributed verifier
// never sees it; nodes only know their incident path edges).
type Instance struct {
	G     *graph.Graph
	Pos   []int
	Edges []DirectedEdge
}

// Honest computes all honest-prover label assignments. It carries the
// state shared between rounds.
type Honest struct {
	P    Params
	Inst *Instance
	at   []int // at[pos] = vertex

	// Round 1 products; R1Edge[i] belongs to Inst.Edges[i].
	R1Node []Round1Node
	R1Edge []Round1Edge

	// Round 2 products (after coins r, r', r_b); R2Edge[i] belongs to
	// Inst.Edges[i] and is the zero value for inner edges.
	R2Node []Round2Node
	R2Edge []Round2Edge

	// Round 3 products (after coins z0, z1).
	R3Node []Round3Node

	// internal
	inPairs  [][]pair // deduplicated C1(v) pairs per vertex
	outPairs [][]pair // deduplicated C0(v) pairs per vertex
	rp       uint64   // r' once known
	prefPos  []uint64 // phi^b_j(r') per vertex
}

type pair struct {
	i int
	j uint64
}

// NewHonest validates the instance and prepares the prover.
func NewHonest(p Params, inst *Instance) (*Honest, error) {
	n := inst.G.N()
	if len(inst.Pos) != n {
		return nil, errors.New("lrsort: bad Pos length")
	}
	at := make([]int, n)
	seen := make([]bool, n)
	for v, q := range inst.Pos {
		if q < 0 || q >= n || seen[q] {
			return nil, errors.New("lrsort: Pos is not a permutation")
		}
		seen[q] = true
		at[q] = v
	}
	for q := 0; q+1 < n; q++ {
		if !inst.G.HasEdge(at[q], at[q+1]) {
			return nil, fmt.Errorf("lrsort: positions %d,%d not adjacent", q, q+1)
		}
	}
	return &Honest{P: p, Inst: inst, at: at}, nil
}

// Fork returns a prover for another run that shares h's round-1
// products, read-only from then on, and computes its own later rounds.
// h must have completed Round1 and nothing after it.
func (h *Honest) Fork() *Honest {
	return &Honest{P: h.P, Inst: h.Inst, at: h.at, R1Node: h.R1Node, R1Edge: h.R1Edge}
}

// Round1 computes the structural commitment.
func (h *Honest) Round1() {
	p := h.P
	n := h.Inst.G.N()
	h.R1Node = make([]Round1Node, n)
	h.R1Edge = make([]Round1Edge, len(h.Inst.Edges))

	// Per-node structure.
	for v := 0; v < n; v++ {
		q := h.Inst.Pos[v]
		b := p.BlockOf(q)
		j := p.IndexInBlock(q)
		l := Round1Node{J: j}
		if j < p.B {
			i := j + 1
			x1 := uint64(b)
			x2 := uint64(b + 1)
			l.X1Bit = p.PosBit(x1, i)
			l.X2Bit = p.PosBit(x2, i)
			jb := leastSignificantZero(p, x1)
			switch {
			case i < jb:
				l.VB = VBLeft
			case i == jb:
				l.VB = VBAt
			default:
				l.VB = VBRight
			}
		}
		h.R1Node[v] = l
	}

	// Edge classification and index commitments; collect the C sets.
	type key struct{ b, i, side int }
	mult := map[key]int{}
	inIdx := make([]map[int]bool, n)
	outIdx := make([]map[int]bool, n)
	for v := range inIdx {
		inIdx[v] = map[int]bool{}
		outIdx[v] = map[int]bool{}
	}
	for k, e := range h.Inst.Edges {
		bu := p.BlockOf(h.Inst.Pos[e.Tail])
		bv := p.BlockOf(h.Inst.Pos[e.Head])
		if bu == bv {
			h.R1Edge[k] = Round1Edge{Inner: true}
			continue
		}
		i := distinguishingIndex(p, uint64(bu), uint64(bv))
		h.R1Edge[k] = Round1Edge{Index: i}
		if !outIdx[e.Tail][i] {
			outIdx[e.Tail][i] = true
			mult[key{bu, i, 0}]++
		}
		if !inIdx[e.Head][i] {
			inIdx[e.Head][i] = true
			mult[key{bv, i, 1}]++
		}
	}
	for v := 0; v < n; v++ {
		q := h.Inst.Pos[v]
		b := p.BlockOf(q)
		j := p.IndexInBlock(q)
		if j < p.B {
			i := j + 1
			h.R1Node[v].M0 = mult[key{b, i, 0}]
			h.R1Node[v].M1 = mult[key{b, i, 1}]
		}
	}
}

// leastSignificantZero returns the 1-based (1 = most significant) index
// of the least significant zero bit of the B-bit value x.
func leastSignificantZero(p Params, x uint64) int {
	for i := p.B; i >= 1; i-- {
		if !p.PosBit(x, i) {
			return i
		}
	}
	return 0 // unreachable for valid positions (< 2^B - 1)
}

// distinguishingIndex returns the most significant bit index at which the
// B-bit values x < y differ (paper's I(x,y)).
func distinguishingIndex(p Params, x, y uint64) int {
	for i := 1; i <= p.B; i++ {
		bx, by := p.PosBit(x, i), p.PosBit(y, i)
		if bx != by {
			return i
		}
	}
	return 0
}

// Round2 consumes the verifier's first coins: r and r' from the path
// head, r_b from each block head.
func (h *Honest) Round2(coins []CoinsV1) {
	p := h.P
	n := h.Inst.G.N()
	head := h.at[0]
	r := coins[head].R
	rp := coins[head].RP
	h.rp = rp
	h.R2Node = make([]Round2Node, n)
	h.R2Edge = make([]Round2Edge, len(h.R1Edge))
	h.prefPos = make([]uint64, n)
	h.inPairs = make([][]pair, n)
	h.outPairs = make([][]pair, n)

	// Per-block full x1 products at r.
	bcast := make([]uint64, p.NumBlocks)
	for b := range bcast {
		prod := uint64(1)
		for i := 1; i <= p.B; i++ {
			if p.PosBit(uint64(b), i) {
				prod = p.F0.Mul(prod, p.F0.Sub(uint64(i), r))
			}
		}
		bcast[b] = prod
	}

	chain1, chain2, pref := uint64(1), uint64(1), uint64(1)
	var rb uint64
	for q := 0; q < n; q++ {
		v := h.at[q]
		j := p.IndexInBlock(q)
		b := p.BlockOf(q)
		if j == 0 {
			chain1, chain2, pref = 1, 1, 1
			rb = coins[v].RB
		}
		if j < p.B {
			i := uint64(j + 1)
			if h.R1Node[v].X1Bit {
				chain1 = p.F0.Mul(chain1, p.F0.Sub(i, r))
				pref = p.F0.Mul(pref, p.F0.Sub(i, rp))
			}
			if h.R1Node[v].X2Bit {
				chain2 = p.F0.Mul(chain2, p.F0.Sub(i, r))
			}
		}
		h.prefPos[v] = pref
		h.R2Node[v] = Round2Node{
			REcho:   r,
			RPEcho:  rp,
			RBEcho:  rb,
			ChainX1: chain1,
			ChainX2: chain2,
			BcastX1: bcast[b],
			PrefPos: pref,
		}
	}

	// Outer-edge commitments: phi^{b_tail}_{i-1}(r').
	for k, e := range h.Inst.Edges {
		r1 := h.R1Edge[k]
		if r1.Inner {
			continue
		}
		b := p.BlockOf(h.Inst.Pos[e.Tail])
		h.R2Edge[k] = Round2Edge{JVal: h.prefixPhi(uint64(b), r1.Index-1)}
	}

	// Deduplicated C pairs per node, now that j-values exist.
	for k, e := range h.Inst.Edges {
		r1 := h.R1Edge[k]
		if r1.Inner {
			continue
		}
		pr := pair{i: r1.Index, j: h.R2Edge[k].JVal}
		h.outPairs[e.Tail] = addPair(h.outPairs[e.Tail], pr)
		h.inPairs[e.Head] = addPair(h.inPairs[e.Head], pr)
	}
}

// prefixPhi computes phi^b_k(r') for block position value b: the product
// over the k most significant bits that are set.
func (h *Honest) prefixPhi(b uint64, k int) uint64 {
	prod := uint64(1)
	for i := 1; i <= k; i++ {
		if h.P.PosBit(b, i) {
			prod = h.P.F0.Mul(prod, h.P.F0.Sub(uint64(i), h.rp))
		}
	}
	return prod
}

func addPair(ps []pair, pr pair) []pair {
	for _, q := range ps {
		if q == pr {
			return ps
		}
	}
	return append(ps, pr)
}

// Round3 consumes the second coins (z0, z1 at block heads) and aggregates
// the verification-scheme products along each block.
func (h *Honest) Round3(coins []CoinsV2) {
	p := h.P
	n := h.Inst.G.N()
	h.R3Node = make([]Round3Node, n)
	var z0, z1, c0, d0, c1, d1 uint64
	prevPref := uint64(1)
	for q := 0; q < n; q++ {
		v := h.at[q]
		j := p.IndexInBlock(q)
		if j == 0 {
			z0, z1 = coins[v].Z0, coins[v].Z1
			c0, d0, c1, d1 = 1, 1, 1, 1
			prevPref = 1
		}
		for _, pr := range h.outPairs[v] {
			c0 = p.F1.Mul(c0, p.F1.Sub(p.EncPair(pr.i, pr.j), z0))
		}
		for _, pr := range h.inPairs[v] {
			c1 = p.F1.Mul(c1, p.F1.Sub(p.EncPair(pr.i, pr.j), z1))
		}
		r1 := h.R1Node[v]
		if j < p.B {
			enc := p.EncPair(j+1, prevPref)
			if r1.X1Bit {
				d1 = p.F1.Mul(d1, p.F1.Pow(p.F1.Sub(enc, z1), uint64(r1.M1)))
			} else {
				d0 = p.F1.Mul(d0, p.F1.Pow(p.F1.Sub(enc, z0), uint64(r1.M0)))
			}
		}
		h.R3Node[v] = Round3Node{
			Z0Echo: z0, Z1Echo: z1,
			AggC0: c0, AggD0: d0, AggC1: c1, AggD1: d1,
		}
		prevPref = h.prefPos[v]
	}
}
