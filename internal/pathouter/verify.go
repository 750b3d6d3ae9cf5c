package pathouter

import (
	"math/rand"
	"sync"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
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

// row is one node's node labels of all three prover rounds, decoded
// once per run (see dip.RowVerifier): everything Decide reads of its
// own labels and of its neighbours'. A row holds no pointer, so the
// run's table of rows is never scanned by the garbage collector.
type row struct {
	fc forestcode.Label
	st spantree.Sum
	// lr is the LR-sorting stage's labels of rounds 1–3.
	lr                          lrsort.NbrLabels
	hasRightEdges, hasLeftEdges bool
	above                       Name
}

// Rows returns the codec that decodes a node's row from its labels.
func (vf Verifier) Rows() dip.Rows {
	p := vf.P
	return dip.RowsOf(func(labels []bitio.String, w *row) bool { return w.decode(labels, p) })
}

func (w *row) decode(labels []bitio.String, p Params) bool {
	r1, err := DecodeRound1Node(labels[0], p)
	if err != nil {
		return false
	}
	r2, err := DecodeRound2Node(labels[1], p)
	if err != nil {
		return false
	}
	r3, err := lrsort.DecodeRound3Node(labels[2], p.LR)
	if err != nil {
		return false
	}
	*w = row{
		fc:            r1.FC,
		st:            r2.ST,
		lr:            lrsort.NbrLabels{R1: r1.LR, R2: r2.LR, R3: r3},
		hasRightEdges: r2.HasRightEdges,
		hasLeftEdges:  r2.HasLeftEdges,
		above:         r2.Above,
	}
	return true
}

// edgeRec is one incident non-path edge, its labels decoded.
type edgeRec struct {
	out  bool
	r1   Round1Edge
	r2   Round2Edge
	port int
}

// decideScratch holds Decide's per-node tables. Decide takes one from
// decidePool instead of allocating about ten slices per node; see
// DESIGN.md §9 for why the pool matters to peak memory, not just to
// allocation counts. nbr and lrEdges point into the run's rows: put
// clears them, so a pooled scratch never keeps a finished run's rows
// alive. Every other element type is pointer-free.
type decideScratch struct {
	nbr         []*row
	fcNbr       []forestcode.Label
	childPorts  []int
	nbrSums     []spantree.Sum
	edges       []edgeRec
	lrEdges     []lrsort.EdgeView
	right, left []edgeRec
	used        []bool
}

var decidePool = sync.Pool{New: func() any { return new(decideScratch) }}

// put clears the scratch's pointers into the run's rows and returns it
// to the pool.
func (sc *decideScratch) put() {
	clear(sc.nbr)
	clear(sc.lrEdges)
	decidePool.Put(sc)
}

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
	defer sc.put()
	p := vf.P

	own, ok := dip.OwnRow[row](view)
	if !ok {
		return false
	}
	coins1, err := DecodeCoinsV1(view.Coin(0), p)
	if err != nil {
		return false
	}
	coins2, err := lrsort.DecodeCoinsV2(view.Coin(1), p.LR)
	if err != nil {
		return false
	}
	nbr := resize(&sc.nbr, view.Deg())
	for port := range nbr {
		if nbr[port], ok = dip.NbrRow[row](view, port); !ok {
			return false
		}
	}

	// --- Stage A: path commitment -------------------------------------
	fcNbr := resize(&sc.fcNbr, len(nbr))
	for port := range fcNbr {
		fcNbr[port] = nbr[port].fc
	}
	dec, err := forestcode.Decode(own.fc, fcNbr, sc.childPorts[:0])
	if err != nil {
		return false
	}
	sc.childPorts = dec.ChildPorts
	if len(dec.ChildPorts) > 1 {
		return false // a path has at most one child per node
	}
	parentPort := dec.ParentPort
	childPort := -1
	if len(dec.ChildPorts) == 1 {
		childPort = dec.ChildPorts[0]
	}
	var parentSum *spantree.Sum
	nbrSums := resize(&sc.nbrSums, len(nbr))
	for port := range nbrSums {
		nbrSums[port] = nbr[port].st
		if port == parentPort {
			parentSum = &nbrSums[port]
		}
	}
	if !spantree.CheckNode(p.ST, parentPort == -1, coins1.ST, own.st, parentSum, nbrSums) {
		return false
	}

	// --- Decode the non-path edges -------------------------------------
	edges := sc.edges[:0]
	for port := range nbr {
		if port == parentPort || port == childPort {
			continue
		}
		r1e, err := DecodeRound1Edge(view.EdgeLab(port, 0), p)
		if err != nil {
			return false
		}
		r2e, err := DecodeRound2Edge(view.EdgeLab(port, 1), p)
		if err != nil {
			return false
		}
		// The edge is directed from its canonical U end iff TailIsCanonU.
		edges = append(edges, edgeRec{out: r1e.TailIsCanonU == view.CanonU(port), r1: r1e, r2: r2e, port: port})
	}
	sc.edges = edges

	// --- Stage B: LR-sorting -------------------------------------------
	lrEdges := sc.lrEdges[:0]
	for _, e := range edges {
		lrEdges = append(lrEdges, lrsort.EdgeView{Out: e.out, R1: e.r1.LR, R2: e.r2.LR, Nbr: &nbr[e.port].lr})
	}
	sc.lrEdges = lrEdges
	lrView := lrsort.NodeView{
		R1:    own.lr.R1,
		R2:    own.lr.R2,
		R3:    own.lr.R3,
		C1:    coins1.LR,
		C2:    coins2,
		Edges: lrEdges,
	}
	if parentPort != -1 {
		lrView.HasLeft, lrView.Left = true, &nbr[parentPort].lr
	}
	if childPort != -1 {
		lrView.HasRight, lrView.Right = true, &nbr[childPort].lr
	}
	if !lrsort.CheckNode(p.LR, &lrView) {
		return false
	}

	// --- Stage C: nesting verification ----------------------------------
	return vf.checkNesting(sc, own, coins1, edges, parentPort, childPort, nbr)
}

func (vf Verifier) checkNesting(sc *decideScratch, own *row, coins1 CoinsV1, edges []edgeRec, parentPort, childPort int, nbr []*row) bool {
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
	if own.hasRightEdges != (len(right) > 0) || own.hasLeftEdges != (len(left) > 0) {
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
		anchor := nbr[childPort].above
		if !chainExists(sc, right, anchor, own.above, true) {
			return false
		}
	}
	if len(left) > 0 {
		anchor := nbr[parentPort].above
		if !chainExists(sc, left, anchor, own.above, false) {
			return false
		}
	}

	// Cross-gap propagation for the gap to the left parent: if neither
	// endpoint touches the gap, the above label carries over unchanged;
	// if both do, the instance has a crossing (see package doc).
	if parentPort != -1 {
		parentHasRight := nbr[parentPort].hasRightEdges
		switch {
		case parentHasRight && len(left) > 0:
			return false
		case !parentHasRight && len(left) == 0:
			if !nameEq(own.above, nbr[parentPort].above) {
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
