package pathouter

import (
	"math/rand"
	"sync"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
	"repro/internal/graph"
	"repro/internal/lrsort"
	"repro/internal/spantree"
)

// Verifier is the distributed path-outerplanarity verifier.
type Verifier struct {
	P Params
}

// Coins samples the verifier's public randomness.
func (vf Verifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	switch round {
	case 0:
		return CoinsV1{
			ST: spantree.SampleCoin(vf.P.ST, rng),
			LR: lrsort.CoinsV1{
				R:  uint64(rng.Int63n(int64(vf.P.LR.F0.P))),
				RP: uint64(rng.Int63n(int64(vf.P.LR.F0.P))),
				RB: uint64(rng.Int63n(int64(vf.P.LR.F0.P))),
			},
			Name: rng.Uint64() & ((1 << uint(vf.P.NameBits())) - 1),
		}.Encode(vf.P)
	case 1:
		return lrsort.CoinsV2{
			Z0: uint64(rng.Int63n(int64(vf.P.LR.F1.P))),
			Z1: uint64(rng.Int63n(int64(vf.P.LR.F1.P))),
		}.Encode(vf.P.LR)
	}
	return bitio.String{}
}

// edgeRec is one incident non-path edge, fully decoded.
type edgeRec struct {
	out   bool
	r1    Round1Edge
	r2    Round2Edge
	nbrR1 Round1Node
	nbrR2 Round2Node
	nbrR3 lrsort.Round3Node
}

// decideScratch holds Decide's per-node tables. Every element type is
// pointer-free, so the backing arrays are never scanned by the garbage
// collector. Decide takes one from decidePool instead of allocating
// about ten slices per node; see DESIGN.md §9 for why the pool matters
// to peak memory, not just to allocation counts.
type decideScratch struct {
	nbrR1       []Round1Node
	nbrR2       []Round2Node
	nbrR3       []lrsort.Round3Node
	fcNbr       []forestcode.Label
	nbrSums     []spantree.Sum
	edges       []edgeRec
	lrEdges     []lrsort.EdgeView
	right, left []edgeRec
	used        []bool
}

var decidePool = sync.Pool{New: func() any { return new(decideScratch) }}

// resize sets the scratch table *s to length n, reusing its backing
// array when it is large enough, and returns it. Callers overwrite every
// element they read, so nothing carries over from another node.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// Decide runs the full composed verification at one node.
func (vf Verifier) Decide(view *dip.View) bool {
	sc := decidePool.Get().(*decideScratch)
	defer decidePool.Put(sc)
	p := vf.P

	ownR1, err := DecodeRound1Node(view.Own[0], p)
	if err != nil {
		return false
	}
	ownR2, err := DecodeRound2Node(view.Own[1], p)
	if err != nil {
		return false
	}
	ownR3, err := lrsort.DecodeRound3Node(view.Own[2], p.LR)
	if err != nil {
		return false
	}
	coins1, err := DecodeCoinsV1(view.Coins[0], p)
	if err != nil {
		return false
	}
	coins2, err := lrsort.DecodeCoinsV2(view.Coins[1], p.LR)
	if err != nil {
		return false
	}

	nbrR1 := resize(&sc.nbrR1, view.Deg)
	nbrR2 := resize(&sc.nbrR2, view.Deg)
	nbrR3 := resize(&sc.nbrR3, view.Deg)
	for port := 0; port < view.Deg; port++ {
		if nbrR1[port], err = DecodeRound1Node(view.Nbr[port][0], p); err != nil {
			return false
		}
		if nbrR2[port], err = DecodeRound2Node(view.Nbr[port][1], p); err != nil {
			return false
		}
		if nbrR3[port], err = lrsort.DecodeRound3Node(view.Nbr[port][2], p.LR); err != nil {
			return false
		}
	}

	// --- Stage A: path commitment -------------------------------------
	fcNbr := resize(&sc.fcNbr, view.Deg)
	for port := range fcNbr {
		fcNbr[port] = nbrR1[port].FC
	}
	dec, err := forestcode.Decode(ownR1.FC, fcNbr)
	if err != nil {
		return false
	}
	if len(dec.ChildPorts) > 1 {
		return false // a path has at most one child per node
	}
	parentPort := dec.ParentPort
	childPort := -1
	if len(dec.ChildPorts) == 1 {
		childPort = dec.ChildPorts[0]
	}
	var parentSum *spantree.Sum
	nbrSums := resize(&sc.nbrSums, view.Deg)
	for port := 0; port < view.Deg; port++ {
		nbrSums[port] = nbrR2[port].ST
		if port == parentPort {
			parentSum = &nbrSums[port]
		}
	}
	if !spantree.CheckNode(p.ST, parentPort == -1, coins1.ST, ownR2.ST, parentSum, nbrSums) {
		return false
	}

	// --- Decode the non-path edges -------------------------------------
	edges := sc.edges[:0]
	for port := 0; port < view.Deg; port++ {
		if port == parentPort || port == childPort {
			continue
		}
		r1e, err := DecodeRound1Edge(view.EdgeLab[port][0], p)
		if err != nil {
			return false
		}
		r2e, err := DecodeRound2Edge(view.EdgeLab[port][1], p)
		if err != nil {
			return false
		}
		e := graph.Canon(view.V, view.NbrID[port])
		tail := e.V
		if r1e.TailIsCanonU {
			tail = e.U
		}
		edges = append(edges, edgeRec{
			out:   tail == view.V,
			r1:    r1e,
			r2:    r2e,
			nbrR1: nbrR1[port],
			nbrR2: nbrR2[port],
			nbrR3: nbrR3[port],
		})
	}
	sc.edges = edges

	// --- Stage B: LR-sorting -------------------------------------------
	lrEdges := sc.lrEdges[:0]
	for _, e := range edges {
		lrEdges = append(lrEdges, lrsort.EdgeView{
			Out: e.out,
			R1:  e.r1.LR,
			R2:  e.r2.LR,
			Nbr: lrsort.NbrLabels{R1: e.nbrR1.LR, R2: e.nbrR2.LR, R3: e.nbrR3},
		})
	}
	sc.lrEdges = lrEdges
	lrView := lrsort.NodeView{
		R1:    ownR1.LR,
		R2:    ownR2.LR,
		R3:    ownR3,
		C1:    coins1.LR,
		C2:    coins2,
		Edges: lrEdges,
	}
	var left, right lrsort.NbrLabels
	if parentPort != -1 {
		left = lrsort.NbrLabels{R1: nbrR1[parentPort].LR, R2: nbrR2[parentPort].LR, R3: nbrR3[parentPort]}
		lrView.HasLeft, lrView.Left = true, &left
	}
	if childPort != -1 {
		right = lrsort.NbrLabels{R1: nbrR1[childPort].LR, R2: nbrR2[childPort].LR, R3: nbrR3[childPort]}
		lrView.HasRight, lrView.Right = true, &right
	}
	if !lrsort.CheckNode(p.LR, &lrView) {
		return false
	}

	// --- Stage C: nesting verification ----------------------------------
	return vf.checkNesting(sc, ownR2, coins1, edges, parentPort, childPort, nbrR2)
}

func (vf Verifier) checkNesting(sc *decideScratch, ownR2 Round2Node, coins1 CoinsV1, edges []edgeRec, parentPort, childPort int, nbrR2 []Round2Node) bool {
	right, left := sc.right[:0], sc.left[:0]
	for _, e := range edges {
		if e.out {
			right = append(right, e)
		} else {
			left = append(left, e)
		}
	}
	sc.right, sc.left = right, left

	// Side flags must match reality.
	if ownR2.HasRightEdges != (len(right) > 0) || ownR2.HasLeftEdges != (len(left) > 0) {
		return false
	}
	// Path extremes carry no edges on the missing side.
	if parentPort == -1 && len(left) > 0 {
		return false
	}
	if childPort == -1 && len(right) > 0 {
		return false
	}

	// Names anchor to the endpoints' sampled strings.
	for _, e := range right {
		if e.r2.Name.Virtual || e.r2.Name.A != coins1.Name {
			return false
		}
	}
	for _, e := range left {
		if e.r2.Name.Virtual || e.r2.Name.B != coins1.Name {
			return false
		}
	}

	// Longest-edge marks: exactly one per non-empty side, and every
	// unmarked edge must be the longest of its other endpoint
	// (Observation 2.1).
	if !checkMarks(right, true) || !checkMarks(left, false) {
		return false
	}

	// Chains (conditions (1)-(3) plus the anchors of (4)/(5)).
	if len(right) > 0 {
		anchor := nbrR2[childPort].Above
		if !chainExists(sc, right, anchor, ownR2.Above, true) {
			return false
		}
	}
	if len(left) > 0 {
		anchor := nbrR2[parentPort].Above
		if !chainExists(sc, left, anchor, ownR2.Above, false) {
			return false
		}
	}

	// Cross-gap propagation for the gap to the left parent: if neither
	// endpoint touches the gap, the above label carries over unchanged;
	// if both do, the instance has a crossing (see package doc).
	if parentPort != -1 {
		parentHasRight := nbrR2[parentPort].HasRightEdges
		switch {
		case parentHasRight && len(left) > 0:
			return false
		case !parentHasRight && len(left) == 0:
			if !nameEq(ownR2.Above, nbrR2[parentPort].Above) {
				return false
			}
		}
	}
	return true
}

func nameEq(a, b Name) bool {
	if a.Virtual || b.Virtual {
		return a.Virtual == b.Virtual
	}
	return a.A == b.A && a.B == b.B
}

// checkMarks enforces exactly one longest mark on this node's side and
// Observation 2.1 on the other side.
func checkMarks(edges []edgeRec, rightSide bool) bool {
	if len(edges) == 0 {
		return true
	}
	longest := 0
	for _, e := range edges {
		ownMark := e.r1.LongestHeadLeft
		otherMark := e.r1.LongestTailRight
		if rightSide {
			ownMark, otherMark = e.r1.LongestTailRight, e.r1.LongestHeadLeft
		}
		if ownMark {
			longest++
		} else if !otherMark {
			return false
		}
	}
	return longest == 1
}

// chainExists searches for an ordering e_1..e_k with name(e_1) = anchor,
// succ(e_i) = name(e_{i+1}), the longest-marked edge last, and
// succ(e_k) = above. Honest names are fresh random strings, so the chain
// is unique and the search walks it directly; a budget bounds the
// backtracking an adversary could otherwise provoke with duplicated
// names (exhausting it counts as rejection — sound, and honest runs only
// reach it through name collisions that already break completeness with
// probability 2^-Θ(L)).
func chainExists(sc *decideScratch, edges []edgeRec, anchor, above Name, rightSide bool) bool {
	k := len(edges)
	used := resize(&sc.used, k)
	clear(used)
	budget := 64 * (k + 1)
	isLongest := func(e edgeRec) bool {
		if rightSide {
			return e.r1.LongestTailRight
		}
		return e.r1.LongestHeadLeft
	}
	var try func(cur Name, remaining int) bool
	try = func(cur Name, remaining int) bool {
		if budget--; budget < 0 {
			return false
		}
		for i := 0; i < k; i++ {
			if used[i] || !nameEq(edges[i].r2.Name, cur) {
				continue
			}
			last := remaining == 1
			if isLongest(edges[i]) != last {
				continue
			}
			if last {
				if nameEq(edges[i].r2.Succ, above) {
					return true
				}
				continue
			}
			used[i] = true
			if try(edges[i].r2.Succ, remaining-1) {
				used[i] = false
				return true
			}
			used[i] = false
		}
		return false
	}
	return try(anchor, k)
}
