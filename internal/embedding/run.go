package embedding

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/pathouter"
	"repro/internal/planar"
	"repro/internal/spantree"
)

// Rounds is the declared interaction-round count of Theorem 1.4.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.4 in
// bits: O(log log n), scaled from the pathouter bound to cover the
// ownership accounting of the reduction — every real node carries its
// copies' labels in h(G,T,ρ), its boundary copies' path neighbors, and
// the spanning-tree stage labels. delta is unused. Applies to honest
// runs on yes-instances; asserted by the bound-conformance test in
// internal/protocol.
func ProofSizeBound(n, delta int) int {
	p, err := pathouter.NewParams(n)
	if err != nil {
		return 0
	}
	return 128 * p.L
}

// Prepared is the coin-free half of an embedding run on (G, ρ):
// everything before the verifier's first coin. It holds the BFS tree T,
// the spanning-tree sub-instance with T's forest-code commitment, the
// reduction h(G,T,ρ) with its simulation map and its engine instance
// (so h freezes once per Prepared), and the path-outerplanarity
// prover's first round on h. Runs only read it, so one Prepared serves
// concurrent runs.
type Prepared struct {
	g      *graph.Graph
	rot    *planar.Rotation
	err    error // n < 2 or no BFS tree: Run reports it
	tree   *graph.Tree
	st     *spantree.Prepared
	red    *Reduction  // nil when ρ yields no h: the prover fails
	copies *dip.SimMap // the real nodes that hold each copy's labels
	hErr   error       // no parameters for h: Run reports it
	hdi    *dip.Instance
	h      *pathouter.Prepared
}

// Prepare computes the coin-free half of an embedding run on g with the
// rotation witness rot.
func Prepare(g *graph.Graph, rot *planar.Rotation) *Prepared {
	pr := &Prepared{g: g, rot: rot}
	n := g.N()
	if n < 2 {
		pr.err = fmt.Errorf("embedding: need n >= 2")
		return pr
	}
	pr.tree, pr.err = graph.BFSTree(g, 0)
	if pr.err != nil {
		return pr
	}
	var tEdges []graph.Edge
	for v, p := range pr.tree.Parent {
		if p != -1 {
			tEdges = append(tEdges, graph.Canon(v, p))
		}
	}
	pr.st = spantree.Prepare(spantree.NewInstance(g, tEdges), spantreeParams(n))
	red, err := BuildReduction(g, rot, pr.tree)
	if err != nil {
		return pr
	}
	pr.red = red
	pr.copies = copyMap(red)
	pp, err := pathouter.NewParams(red.H.N())
	if err != nil {
		pr.hErr = err
		return pr
	}
	pr.hdi = dip.NewInstance(red.H)
	pr.h = pathouter.Prepare(&pathouter.Instance{G: red.H, Pos: red.PosH}, pp)
	return pr
}

// Run executes the composed planar-embedding DIP: spanning-tree
// verification of T on the real graph, path-outerplanarity of h(G,T,ρ)
// with copies simulated by their owners, and the per-node corner-order
// checks that tie the chord nesting back to each node's local rotation
// input (the brief announcement leaves these local conditions implicit;
// without them a twist at a tree leaf would be invisible to h — see
// DESIGN.md §4). Rejecting stages surface in the outcome's Rejections
// map under "tree", "nesting", and "corner".
func Run(g *graph.Graph, rot *planar.Rotation, rng *rand.Rand, opts ...dip.RunOption) (*dip.Outcome, error) {
	return Prepare(g, rot).Run(rng, opts...)
}

// Run executes one run of the prepared embedding DIP, as the
// package-level Run does.
func (pr *Prepared) Run(rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	g := pr.g
	cfg := dip.NewRunConfig(opts...)
	defer cfg.CompositeSpan("embedding", g.N(), Rounds, &res)()
	res = &dip.Outcome{Rounds: Rounds}
	if pr.err != nil {
		return nil, pr.err
	}

	// Stage A: commit and verify T on the real graph (3 rounds, runs in
	// parallel with the rest).
	stRes, err := pr.st.Protocol().RunOnce(pr.st.Instance(), rng, cfg.Child("spantree")...)
	if err != nil {
		return nil, fmt.Errorf("embedding: spanning-tree stage: %w", err)
	}
	if !stRes.Accepted {
		res.Reject("tree")
	}

	// Stage B: path-outerplanarity of h.
	if pr.red == nil {
		res.ProverFailed = true
		return res, nil
	}
	if pr.hErr != nil {
		return nil, pr.hErr
	}
	hRes, err := pr.h.Protocol().RunOnce(pr.hdi, rng, cfg.Child("reduction-h")...)
	if err != nil {
		if dip.Aborted(err) {
			return nil, err
		}
		res.ProverFailed = true
		return res, nil
	}
	if !hRes.Accepted {
		res.Reject("nesting")
	}

	// Stage C: corner-order checks at every real node against its own
	// rotation input, using the same name/succ labels.
	cornerOK := checkCorners(g, pr.rot, pr.tree, pr.red, pr.h.P, hRes)
	if !cornerOK {
		res.Reject("corner")
	}

	res.Accepted = stRes.Accepted && hRes.Accepted && cornerOK
	// The spanning-tree stage's rounds align with h's first two.
	charges := dip.NewCharges(g.N(), len(hRes.Stats.LabelBits))
	charges.Add(pr.copies, hRes.Stats.LabelBits, hRes.Stats.TotalLabelBits)
	charges.Add(nil, stRes.Stats.LabelBits, stRes.Stats.TotalLabelBits)
	res.ProofSizeBits, res.TotalLabelBits = charges.ProofSizeBits(), charges.Total
	return res, nil
}

func spantreeParams(n int) spantree.Params {
	pp, err := pathouter.NewParams(n)
	if err != nil {
		return spantree.DefaultParams()
	}
	return pp.ST
}

// checkCorners verifies, for every real node v and every corner of its
// rotation (the maximal runs of non-tree edges between consecutive tree
// edges), that the clockwise order of the corner's chords matches the
// nesting chains committed in the labels: left chords outermost-first,
// then right chords innermost-first, with consecutive chords linked by
// succ(inner) = name(outer).
func checkCorners(g *graph.Graph, rot *planar.Rotation, tree *graph.Tree, red *Reduction, pp pathouter.Params, hRes *dip.Result) bool {
	if len(hRes.Transcript.Assignments) < 2 {
		return false
	}
	a1 := hRes.Transcript.Assignments[0]
	a2 := hRes.Transcript.Assignments[1]

	// Decode each labelled chord of h once, by its edge id in h.
	h := red.H
	chords := make([]chord, h.M())
	for id, lab := range a1.Edge {
		if lab.Len() == 0 {
			continue
		}
		r1, err := pathouter.DecodeRound1Edge(lab, pp)
		if err != nil {
			return false
		}
		var lab2 bitio.String
		if len(a2.Edge) > 0 {
			lab2 = a2.Edge[id]
		}
		r2, err := pathouter.DecodeRound2Edge(lab2, pp)
		if err != nil {
			return false
		}
		e := h.Edges()[id]
		tail := e.V
		if r1.TailIsCanonU {
			tail = e.U
		}
		chords[id] = chord{name: r2.Name, succ: r2.Succ, tail: tail, labelled: true}
	}
	byReal := make([]int, g.N())

	for v := 0; v < g.N(); v++ {
		deg := g.Degree(v)
		if deg == 0 {
			continue
		}
		// Walk the rotation once, splitting it into corners delimited by
		// tree edges; the corner after tree edge (v, t) attaches at the
		// copy x_{i}(v) with i determined by t.
		start := -1
		for i, u := range rot.Rot[v] {
			if isTreeEdge(tree, v, u) {
				start = i
				break
			}
		}
		if start == -1 {
			return false // a spanning tree touches every vertex
		}
		var corner []int
		cornerCopy := copyAfterTreeEdge(red, tree, v, rot.Rot[v][start])
		for k := 1; k <= deg; k++ {
			u := rot.Rot[v][(start+k)%deg]
			if !isTreeEdge(tree, v, u) {
				corner = append(corner, u)
				continue
			}
			if !checkOneCorner(red, cornerCopy, corner, chords, byReal) {
				return false
			}
			corner = corner[:0]
			cornerCopy = copyAfterTreeEdge(red, tree, v, u)
		}
		if !checkOneCorner(red, cornerCopy, corner, chords, byReal) {
			return false
		}
	}
	return true
}

// chord is a decoded non-path edge of h.
type chord struct {
	name, succ pathouter.Name
	tail       int  // copy id of the tail (leftward endpoint claim)
	labelled   bool // the edge carries a round-1 label
}

func isTreeEdge(tree *graph.Tree, a, b int) bool {
	return tree.Parent[a] == b || tree.Parent[b] == a
}

// copyAfterTreeEdge returns the copy of v that hosts the corner starting
// clockwise after the tree edge (v, t): x_0(v) when t is the parent,
// x_j(v) when t is the j-th clockwise child.
func copyAfterTreeEdge(red *Reduction, tree *graph.Tree, v, t int) int {
	if tree.Parent[v] == t {
		return red.Copies[v][0]
	}
	// t is a child of v; find its index. Children were ordered clockwise
	// during the reduction: copy x_j follows child j.
	for j := 1; j < len(red.Copies[v]); j++ {
		if red.CopyOf[red.Copies[v][j]] == v && red.Owner[red.Copies[v][j]] == t {
			return red.Copies[v][j]
		}
	}
	return -1
}

// checkOneCorner validates the rotation-order chord sequence of one
// corner, hosted at copy copyID, against the committed nesting: left
// chords (whose head is this copy) come first, innermost first; then
// right chords (whose tail is this copy), outermost first; consecutive
// chords on each side must be linked by succ(inner) = name(outer).
// chords holds h's decoded edges by id; byReal is an all-zero scratch
// index over the real vertices, left all-zero on return.
func checkOneCorner(red *Reduction, copyID int, nbrs []int, chords []chord, byReal []int) bool {
	if len(nbrs) == 0 {
		return true
	}
	if copyID < 0 {
		return false
	}
	// The chord of (v,u) in h joins this copy to some copy of u. Path
	// edges join only copies of tree-adjacent vertices and G is simple,
	// so at most one labelled h-edge joins this copy to a copy of a
	// non-tree neighbour u: index the copy's labelled ports by the real
	// vertex at their far end, as 1 + the edge id.
	ports, eids := red.H.Neighbors(copyID), red.H.PortEdgeIDs(copyID)
	for p, cu := range ports {
		if chords[eids[p]].labelled {
			byReal[red.CopyOf[cu]] = eids[p] + 1
		}
	}
	ok := true
	var prev *chord
	for _, u := range nbrs {
		id := byReal[u] - 1
		if id < 0 {
			ok = false // chord not attached at this corner's copy
			break
		}
		c := &chords[id]
		switch right := c.tail == copyID; {
		case prev == nil:
		case prev.tail == copyID && !right:
			ok = false // interleaved directions
		case prev.tail == copyID:
			// Right chords run outermost first: prev is directly above c.
			ok = nameEq(c.succ, prev.name)
		case !right:
			// Left chords run innermost first: c is directly above prev.
			ok = nameEq(prev.succ, c.name)
		}
		if !ok {
			break
		}
		prev = c
	}
	for _, cu := range ports {
		byReal[red.CopyOf[cu]] = 0
	}
	return ok
}

func nameEq(a, b pathouter.Name) bool {
	if a.Virtual || b.Virtual {
		return a.Virtual == b.Virtual
	}
	return a.A == b.A && a.B == b.B
}

// copyMap simulates h(G,T,ρ) on real nodes: each copy is held by its
// owner, and each real node v also holds the path neighbors of its
// boundary copies, the copy before x_0(v) and the copy after x_χ(v).
func copyMap(red *Reduction) *dip.SimMap {
	nh := red.H.N()
	at := make([]int, nh)
	for c, q := range red.PosH {
		at[q] = c
	}
	m := dip.NewSimMap(nh, nh+2*len(red.Copies))
	var buf [3]int
	for c := range nh {
		hs := append(buf[:0], red.Owner[c])
		if q := red.PosH[c]; q+1 < nh {
			x := at[q+1]
			if cs := red.Copies[red.CopyOf[x]]; cs[0] == x {
				hs = append(hs, red.CopyOf[x]) // c precedes x = x_0(v)
			}
		}
		if q := red.PosH[c]; q > 0 {
			x := at[q-1]
			if cs := red.Copies[red.CopyOf[x]]; cs[len(cs)-1] == x {
				hs = append(hs, red.CopyOf[x]) // c follows x = x_χ(v)
			}
		}
		m.Add(hs...)
	}
	return m
}
