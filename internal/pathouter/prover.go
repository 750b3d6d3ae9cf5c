package pathouter

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
	"repro/internal/graph"
	"repro/internal/lrsort"
	"repro/internal/spantree"
)

// Instance is a path-outerplanarity input together with the honest
// prover's witness path (Pos[v] = position of v). The distributed
// verifier never reads Pos; only the prover does.
type Instance struct {
	G   *graph.Graph
	Pos []int
}

// Honest is the honest prover for the composed protocol.
type Honest struct {
	P    Params
	Inst *Instance

	at     []int
	parent []int
	// dirEdges lists the chords (the non-path edges) in edge-id order,
	// directed left to right; chordID[i] is chord i's edge id in G.
	dirEdges []lrsort.DirectedEdge
	chordID  []int
	lr       *lrsort.Honest
	// r1 is the round-1 assignment, computed by NewHonest: it depends
	// on no coin, so a fork shares it.
	r1 *dip.Assignment
	// Interval structure of the chords, from the round-2 names: nameOf
	// and succ by chord index, above by vertex.
	succ   []Name
	nameOf []Name
	above  []Name
}

// NewHonest validates the witness and computes the prover's first
// round, which precedes every coin.
func NewHonest(p Params, inst *Instance) (*Honest, error) {
	n := inst.G.N()
	if len(inst.Pos) != n {
		return nil, errors.New("pathouter: bad Pos length")
	}
	at := make([]int, n)
	seen := make([]bool, n)
	for v, q := range inst.Pos {
		if q < 0 || q >= n || seen[q] {
			return nil, errors.New("pathouter: Pos is not a permutation")
		}
		seen[q] = true
		at[q] = v
	}
	for q := 0; q+1 < n; q++ {
		if !inst.G.HasEdge(at[q], at[q+1]) {
			return nil, fmt.Errorf("pathouter: witness positions %d,%d not adjacent", q, q+1)
		}
	}
	parent := make([]int, n)
	parent[at[0]] = -1
	for q := 1; q < n; q++ {
		parent[at[q]] = at[q-1]
	}
	var dirs []lrsort.DirectedEdge
	var ids []int
	for id, e := range inst.G.Edges() {
		qu, qv := inst.Pos[e.U], inst.Pos[e.V]
		if qu+1 == qv || qv+1 == qu {
			continue // path edge
		}
		if qu < qv {
			dirs = append(dirs, lrsort.DirectedEdge{Tail: e.U, Head: e.V})
		} else {
			dirs = append(dirs, lrsort.DirectedEdge{Tail: e.V, Head: e.U})
		}
		ids = append(ids, id)
	}
	lrH, err := lrsort.NewHonest(p.LR, &lrsort.Instance{G: inst.G, Pos: inst.Pos, Edges: dirs})
	if err != nil {
		return nil, err
	}
	h := &Honest{P: p, Inst: inst, at: at, parent: parent, lr: lrH, dirEdges: dirs, chordID: ids}
	if h.r1, err = h.round1(); err != nil {
		return nil, err
	}
	return h, nil
}

// Round is the dip.Prover entry point.
func (h *Honest) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	g := h.Inst.G
	switch round {
	case 0:
		return h.r1, nil
	case 1:
		return h.round2(coins[0])
	case 2:
		cs := make([]lrsort.CoinsV2, g.N())
		for v := range cs {
			c, err := DecodeCoinsV1(coins[0][v], h.P) // layout check only
			_ = c
			if err != nil {
				return nil, err
			}
			c2, err := lrsort.DecodeCoinsV2(coins[1][v], h.P.LR)
			if err != nil {
				return nil, err
			}
			c2.Z0 %= h.P.LR.F1.P
			c2.Z1 %= h.P.LR.F1.P
			cs[v] = c2
		}
		h.lr.Round3(cs)
		a := dip.NewAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = h.lr.R3Node[v].Encode(h.P.LR)
		}
		return a, nil
	}
	return nil, fmt.Errorf("pathouter: unexpected prover round %d", round)
}

// fork returns a prover for another run that shares h's round-1 state
// and assignment, read-only from then on. h must not have answered any
// coin.
func (h *Honest) fork() *Honest {
	return &Honest{P: h.P, Inst: h.Inst, at: h.at, parent: h.parent, dirEdges: h.dirEdges, chordID: h.chordID, lr: h.lr.Fork(), r1: h.r1}
}

func (h *Honest) round1() (*dip.Assignment, error) {
	g := h.Inst.G
	fc, err := forestcode.EncodeForest(g, h.parent)
	if err != nil {
		return nil, err
	}
	h.lr.Round1()
	longTR, longHL := h.longestMarks()

	a := dip.NewEdgeAssignment(g)
	for v := 0; v < g.N(); v++ {
		a.Node[v] = Round1Node{FC: fc[v], LR: h.lr.R1Node[v]}.Encode(h.P)
	}
	for i, de := range h.dirEdges {
		a.Edge[h.chordID[i]] = Round1Edge{
			TailIsCanonU:     de.Tail < de.Head,
			LR:               h.lr.R1Edge[i],
			LongestTailRight: longTR[i],
			LongestHeadLeft:  longHL[i],
		}.Encode(h.P)
	}
	return a, nil
}

// longestMarks derives the honest longest-edge marks of the interval
// family, by chord index: whether each chord is its tail's longest
// right edge and its head's longest left edge.
func (h *Honest) longestMarks() (longTR, longHL []bool) {
	pos := h.Inst.Pos
	longTR = make([]bool, len(h.dirEdges))
	longHL = make([]bool, len(h.dirEdges))

	maxHead := map[int]int{} // tail -> furthest head position
	minTail := map[int]int{} // head -> nearest-to-left tail position
	for _, de := range h.dirEdges {
		if q, ok := maxHead[de.Tail]; !ok || pos[de.Head] > q {
			maxHead[de.Tail] = pos[de.Head]
		}
		if q, ok := minTail[de.Head]; !ok || pos[de.Tail] < q {
			minTail[de.Head] = pos[de.Tail]
		}
	}
	for i, de := range h.dirEdges {
		longTR[i] = pos[de.Head] == maxHead[de.Tail]
		longHL[i] = pos[de.Tail] == minTail[de.Head]
	}
	return longTR, longHL
}

// round2 consumes the first coins and produces the sums, LR chains, and
// the name/succ/above structure.
func (h *Honest) round2(rawCoins []bitio.String) (*dip.Assignment, error) {
	g := h.Inst.G
	n := g.N()
	stCoins := make([]spantree.Coin, n)
	lrCoins := make([]lrsort.CoinsV1, n)
	names := make([]uint64, n)
	for v := 0; v < n; v++ {
		c, err := DecodeCoinsV1(rawCoins[v], h.P)
		if err != nil {
			return nil, err
		}
		stCoins[v] = c.ST
		c.LR.R %= h.P.LR.F0.P
		c.LR.RP %= h.P.LR.F0.P
		c.LR.RB %= h.P.LR.F0.P
		lrCoins[v] = c.LR
		names[v] = c.Name
	}
	sums, err := spantree.HonestSums(h.parent, stCoins)
	if err != nil {
		return nil, err
	}
	h.lr.Round2(lrCoins)
	h.computeNames(names)

	hasRight := make([]bool, n)
	hasLeft := make([]bool, n)
	for _, de := range h.dirEdges {
		hasRight[de.Tail] = true
		hasLeft[de.Head] = true
	}

	a := dip.NewEdgeAssignment(g)
	for v := 0; v < n; v++ {
		a.Node[v] = Round2Node{
			ST:            sums[v],
			LR:            h.lr.R2Node[v],
			HasRightEdges: hasRight[v],
			HasLeftEdges:  hasLeft[v],
			Above:         h.above[v],
		}.Encode(h.P)
	}
	for i, id := range h.chordID {
		a.Edge[id] = Round2Edge{
			LR:   h.lr.R2Edge[i], // zero value for inner edges
			Name: h.nameOf[i],
			Succ: h.succ[i],
		}.Encode(h.P)
	}
	return a, nil
}

// computeNames derives name(e), succ(e), and above(v) from the sampled
// names by a left-to-right sweep with an interval stack.
func (h *Honest) computeNames(sv []uint64) {
	pos := h.Inst.Pos
	n := len(pos)
	h.nameOf = make([]Name, len(h.dirEdges))
	h.succ = make([]Name, len(h.dirEdges))
	h.above = make([]Name, n)
	for v := range h.above {
		h.above[v] = Name{Virtual: true}
	}

	type iv struct {
		l, r int
		e    int // chord index
	}
	ivs := make([]iv, len(h.dirEdges))
	for i, de := range h.dirEdges {
		h.nameOf[i] = Name{A: sv[de.Tail], B: sv[de.Head]}
		ivs[i] = iv{l: pos[de.Tail], r: pos[de.Head], e: i}
	}
	// Sweep order: by left end, outermost first at one left end. No two
	// chords share both ends, so the order is total.
	slices.SortFunc(ivs, func(a, b iv) int {
		if a.l != b.l {
			return cmp.Compare(a.l, b.l)
		}
		return cmp.Compare(b.r, a.r)
	})
	var stack []iv
	next := 0
	for q := 0; q < n; q++ {
		for len(stack) > 0 && stack[len(stack)-1].r == q {
			stack = stack[:len(stack)-1]
		}
		// The innermost interval strictly containing q sits on top now
		// (intervals opening at q have not been pushed yet).
		if len(stack) > 0 && stack[len(stack)-1].l < q {
			h.above[h.at[q]] = h.nameOf[stack[len(stack)-1].e]
		}
		for ; next < len(ivs) && ivs[next].l == q; next++ {
			i := ivs[next]
			if len(stack) == 0 {
				h.succ[i.e] = Name{Virtual: true}
			} else {
				h.succ[i.e] = h.nameOf[stack[len(stack)-1].e]
			}
			stack = append(stack, i)
		}
	}
}
