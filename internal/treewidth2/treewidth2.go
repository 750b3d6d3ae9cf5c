// Package treewidth2 implements the treewidth-at-most-2 DIP of Theorem
// 1.7 via Lemma 8.2: a graph has treewidth <= 2 iff every biconnected
// component is series-parallel.
//
// The protocol mirrors the Theorem 1.3 template: the prover roots the
// block-cut tree, commits one DFS tree per block (rooted at the block's
// separating vertex, so the root has exactly one child — the block
// leader), verifies the union is a spanning tree (Lemma 2.5, amplified),
// isolates blocks with sep/lead random strings exactly as in the
// outerplanarity protocol, and runs the Theorem 1.6 series-parallel
// protocol inside every block, deferring the separating vertex's labels
// to the block leader.
package treewidth2

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
	"repro/internal/graph"
	"repro/internal/seriesparallel"
	"repro/internal/spantree"
)

// Plan is the prover's decomposition witness.
type Plan struct {
	// BlockVerts[c] lists block c's vertices; BlockVerts[c][0] is the
	// separating vertex (or the root anchor for the root block).
	BlockVerts [][]int
	// ParentF[v] is v's parent in the union of per-block DFS trees.
	ParentF []int
	// Home[v] is the block owning v (cut vertices belong to the block of
	// their parent edge; the root anchor to the root block).
	Home []int
	Root int
	// RootComp indexes the root block.
	RootComp        int
	IsCut, IsLeader []bool
}

// HonestPlan derives the decomposition. It never fails structurally (the
// block-cut tree always exists); non-SP blocks surface later when the
// per-block sub-protocol rejects.
func HonestPlan(g *graph.Graph) (*Plan, error) {
	n := g.N()
	if n < 2 {
		return nil, errors.New("treewidth2: need n >= 2")
	}
	if !g.IsConnected() {
		return nil, errors.New("treewidth2: need a connected graph")
	}
	bct := graph.NewBlockCutTree(g, 0)
	dec := bct.Decomp
	p := &Plan{
		BlockVerts: make([][]int, len(dec.Components)),
		ParentF:    make([]int, n),
		Home:       make([]int, n),
		IsCut:      append([]bool(nil), dec.IsCut...),
		IsLeader:   make([]bool, n),
	}
	for v := range p.ParentF {
		p.ParentF[v] = -2
		p.Home[v] = -1
	}
	order := []int{bct.RootBlock}
	for i := 0; i < len(order); i++ {
		order = append(order, bct.ChildBlocks[order[i]]...)
	}
	for _, c := range order {
		verts := dec.Vertices[c]
		sep := bct.ParentCut[c]
		if c == bct.RootBlock {
			sep = verts[0]
			p.Root = sep
			p.RootComp = c
			p.Home[sep] = c
			p.ParentF[sep] = -1
			p.IsLeader[sep] = true
		}
		sub, orig := inducedBlock(g, dec, c)
		sepLocal := indexOf(orig, sep)
		parents := dfsTree(sub, sepLocal)
		// Root of a DFS tree of a biconnected graph has one child.
		ordered := []int{sep}
		for lv, lp := range parents {
			v := orig[lv]
			if lp == -1 {
				continue
			}
			p.ParentF[v] = orig[lp]
			p.Home[v] = c
			ordered = append(ordered, v)
			if orig[lp] == sep && c != bct.RootBlock {
				p.IsLeader[v] = true
			}
			if orig[lp] == sep && c == bct.RootBlock {
				// The root block's single DFS child stays unflagged; the
				// root itself plays the leader.
			}
		}
		p.BlockVerts[c] = ordered
	}
	for v := 0; v < n; v++ {
		if p.ParentF[v] == -2 || p.Home[v] == -1 {
			return nil, fmt.Errorf("treewidth2: vertex %d uncovered", v)
		}
	}
	return p, nil
}

func inducedBlock(g *graph.Graph, dec *graph.BiconnectedDecomposition, c int) (*graph.Graph, []int) {
	verts := dec.Vertices[c]
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	h := graph.New(len(verts))
	for _, e := range dec.Components[c] {
		h.MustAddEdge(idx[e.U], idx[e.V])
	}
	return h, verts
}

func indexOf(s []int, x int) int {
	for i, v := range s {
		if v == x {
			return i
		}
	}
	return -1
}

// dfsTree returns true depth-first-search parent pointers rooted at r
// (parents assigned at expansion time, so the root of a biconnected
// graph's DFS tree has exactly one child — the property the block-leader
// construction relies on).
func dfsTree(g *graph.Graph, r int) []int {
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = -2
	}
	parent[r] = -1
	type frame struct{ v, ni int }
	stack := []frame{{r, 0}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.ni < g.Degree(top.v) {
			u := g.Neighbors(top.v)[top.ni]
			top.ni++
			if parent[u] == -2 {
				parent[u] = top.v
				stack = append(stack, frame{u, 0})
			}
			continue
		}
		stack = stack[:len(stack)-1]
	}
	return parent
}

// ---- structural protocol (stage 1+2) --------------------------------

// Params reuses the outerplanarity-style structural parameters.
type Params struct {
	L  int
	ST spantree.Params
}

// NewParams derives parameters from n.
func NewParams(n int) Params {
	l := 3 * bitio.BitsFor(bitio.BitsFor(n)+1)
	if l < 8 {
		l = 8
	}
	if l > 63 {
		l = 63
	}
	return Params{L: l, ST: spantree.Params{Reps: l, IDBits: l}}
}

type structR1 struct {
	FC     forestcode.Label
	Cut    bool
	Leader bool
}

func (l structR1) encode() bitio.String {
	var w bitio.Writer
	w.WriteString(l.FC.Encode())
	w.WriteBool(l.Cut)
	w.WriteBool(l.Leader)
	return w.String()
}

func decodeStructR1(s bitio.String) (structR1, error) {
	r := s.Reader()
	fcBits, err := r.ReadString(forestcode.LabelBits)
	if err != nil {
		return structR1{}, fmt.Errorf("treewidth2: r1: %w", err)
	}
	fc, err := forestcode.DecodeLabel(fcBits)
	if err != nil {
		return structR1{}, err
	}
	cut, err := r.ReadBool()
	if err != nil {
		return structR1{}, err
	}
	lead, err := r.ReadBool()
	if err != nil {
		return structR1{}, err
	}
	return structR1{FC: fc, Cut: cut, Leader: lead}, nil
}

type structCoin struct {
	S  uint64
	ST spantree.Coin
}

func (c structCoin) encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(c.S, p.L)
	w.WriteString(c.ST.Encode(p.ST))
	return w.String()
}

func decodeStructCoin(s bitio.String, p Params) (structCoin, error) {
	r := s.Reader()
	sv, err := r.ReadUint(p.L)
	if err != nil {
		return structCoin{}, fmt.Errorf("treewidth2: coin: %w", err)
	}
	stBits, err := r.ReadString(p.ST.Reps + p.ST.IDBits)
	if err != nil {
		return structCoin{}, err
	}
	st, err := spantree.DecodeCoin(stBits, p.ST)
	if err != nil {
		return structCoin{}, err
	}
	return structCoin{S: sv, ST: st}, nil
}

type structR2 struct {
	Self uint64
	Sep  uint64
	Lead uint64
	ST   spantree.Sum
}

func (l structR2) encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(l.Self, p.L)
	w.WriteUint(l.Sep, p.L)
	w.WriteUint(l.Lead, p.L)
	w.WriteString(l.ST.Encode(p.ST))
	return w.String()
}

func decodeStructR2(s bitio.String, p Params) (structR2, error) {
	r := s.Reader()
	var l structR2
	var err error
	if l.Self, err = r.ReadUint(p.L); err != nil {
		return l, fmt.Errorf("treewidth2: r2: %w", err)
	}
	if l.Sep, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	if l.Lead, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	stBits, err := r.ReadString(p.ST.Reps + p.ST.IDBits)
	if err != nil {
		return l, err
	}
	if l.ST, err = spantree.DecodeSum(stBits, p.ST); err != nil {
		return l, err
	}
	return l, nil
}

type structProver struct {
	p    Params
	plan *Plan
	g    *graph.Graph
}

func (sp *structProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	g := sp.g
	switch round {
	case 0:
		fc, err := forestcode.EncodeForest(g, sp.plan.ParentF)
		if err != nil {
			return nil, err
		}
		a := dip.NewAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = structR1{
				FC:     fc[v],
				Cut:    sp.plan.IsCut[v],
				Leader: sp.plan.IsLeader[v],
			}.encode()
		}
		return a, nil
	case 1:
		n := g.N()
		cs := make([]structCoin, n)
		for v := 0; v < n; v++ {
			c, err := decodeStructCoin(coins[0][v], sp.p)
			if err != nil {
				return nil, err
			}
			cs[v] = c
		}
		stCoins := make([]spantree.Coin, n)
		for v := range stCoins {
			stCoins[v] = cs[v].ST
		}
		sums, err := spantree.HonestSums(sp.plan.ParentF, stCoins)
		if err != nil {
			return nil, err
		}
		a := dip.NewAssignment(g)
		for v := 0; v < n; v++ {
			c := sp.plan.Home[v]
			sep := sp.plan.BlockVerts[c][0]
			var lead int
			if c == sp.plan.RootComp {
				sep, lead = sp.plan.Root, sp.plan.Root
			} else {
				lead = leaderOf(sp.plan, c)
			}
			a.Node[v] = structR2{
				Self: cs[v].S,
				Sep:  cs[sep].S,
				Lead: cs[lead].S,
				ST:   sums[v],
			}.encode(sp.p)
		}
		return a, nil
	}
	return nil, fmt.Errorf("treewidth2: unexpected round %d", round)
}

func leaderOf(p *Plan, c int) int {
	for _, v := range p.BlockVerts[c][1:] {
		if p.IsLeader[v] && p.ParentF[v] == p.BlockVerts[c][0] {
			return v
		}
	}
	return p.BlockVerts[c][0]
}

type structVerifier struct {
	p Params
}

func (sv structVerifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	return structCoin{
		S:  rng.Uint64() & ((1 << uint(sv.p.L)) - 1),
		ST: spantree.SampleCoin(sv.p.ST, rng),
	}.encode(sv.p)
}

func (sv structVerifier) Decide(view *dip.View) bool {
	own1, err := decodeStructR1(view.Own[0])
	if err != nil {
		return false
	}
	own2, err := decodeStructR2(view.Own[1], sv.p)
	if err != nil {
		return false
	}
	coin, err := decodeStructCoin(view.Coins[0], sv.p)
	if err != nil {
		return false
	}
	nbr1 := make([]structR1, view.Deg)
	nbr2 := make([]structR2, view.Deg)
	fcNbr := make([]forestcode.Label, view.Deg)
	for port := 0; port < view.Deg; port++ {
		if nbr1[port], err = decodeStructR1(view.Nbr[port][0]); err != nil {
			return false
		}
		if nbr2[port], err = decodeStructR2(view.Nbr[port][1], sv.p); err != nil {
			return false
		}
		fcNbr[port] = nbr1[port].FC
	}
	dec, err := forestcode.Decode(own1.FC, fcNbr)
	if err != nil {
		return false
	}
	if own2.Self != coin.S {
		return false
	}
	var parentSum *spantree.Sum
	nbrSums := make([]spantree.Sum, view.Deg)
	for port := range nbrSums {
		nbrSums[port] = nbr2[port].ST
		if port == dec.ParentPort {
			parentSum = &nbrSums[port]
		}
	}
	if !spantree.CheckNode(sv.p.ST, dec.ParentPort == -1, coin.ST, own2.ST, parentSum, nbrSums) {
		return false
	}
	leaderChildren := 0
	for _, cp := range dec.ChildPorts {
		if nbr1[cp].Leader {
			leaderChildren++
		}
	}
	if own1.Cut != (leaderChildren > 0) {
		return false
	}
	switch {
	case dec.ParentPort == -1:
		if !own1.Leader {
			return false
		}
		if own2.Sep != coin.S || own2.Lead != coin.S {
			return false
		}
	case own1.Leader:
		if !nbr1[dec.ParentPort].Cut {
			return false
		}
		if own2.Sep != nbr2[dec.ParentPort].Self {
			return false
		}
		if own2.Lead != coin.S {
			return false
		}
	default:
		if own2.Sep != nbr2[dec.ParentPort].Sep || own2.Lead != nbr2[dec.ParentPort].Lead {
			return false
		}
	}
	if !own1.Cut {
		for port := 0; port < view.Deg; port++ {
			sameHome := nbr2[port].Sep == own2.Sep && nbr2[port].Lead == own2.Lead
			viaCut := nbr1[port].Cut && own2.Sep == nbr2[port].Self
			if !sameHome && !viaCut {
				return false
			}
		}
	}
	return true
}

// StructuralProtocol wires the 3-round structural stage.
func StructuralProtocol(g *graph.Graph, p Params, plan *Plan) *dip.Protocol {
	return &dip.Protocol{
		Name:           "treewidth2-structural",
		ProverRounds:   2,
		VerifierRounds: 1,
		NewProver:      func() dip.Prover { return &structProver{p: p, plan: plan, g: g} },
		Verifier:       structVerifier{p: p},
	}
}

// ---- composite runner ------------------------------------------------

// Rounds is the declared interaction-round count of Theorem 1.7.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.7 in
// bits: O(log log n), the per-block series-parallel bound plus the
// block-cut structural labels and the deferred separating-vertex copies
// charged to block leaders. delta is unused. Applies to honest runs on
// yes-instances; asserted by the bound-conformance test in
// internal/protocol.
func ProofSizeBound(n, delta int) int {
	b := seriesparallel.ProofSizeBound(n, delta)
	if b == 0 {
		return 0
	}
	return b + b/2
}

// Run executes the composed treewidth-2 DIP. Options attach a tracer;
// the structural stage and every per-block series-parallel sub-run nest
// under the composite's span. Rejecting stages surface in the outcome's
// Rejections map under "structural" and "block" (one count per
// rejecting block sub-run).
func Run(g *graph.Graph, plan *Plan, rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	cfg := dip.NewRunConfig(opts...)
	endRun := cfg.CompositeSpan("treewidth2", g.N(), Rounds)
	defer func() {
		if res != nil {
			endRun(res.Accepted, res.ProofSizeBits)
		} else {
			endRun(false, 0)
		}
	}()
	res = &dip.Outcome{Rounds: Rounds}
	if plan == nil {
		plan, err = HonestPlan(g)
		if err != nil {
			res.ProverFailed = true
			return res, nil
		}
	}
	p := NewParams(g.N())
	di := dip.NewInstance(g)
	structRes, err := StructuralProtocol(g, p, plan).RunOnce(di, rng, cfg.Child("structural")...)
	if err != nil {
		return nil, fmt.Errorf("treewidth2: structural stage: %w", err)
	}
	if !structRes.Accepted {
		res.Reject("structural")
	}
	res.TotalLabelBits = structRes.Stats.TotalLabelBits

	merged := make([][]int, 3)
	for r := range merged {
		merged[r] = make([]int, g.N())
	}
	for r, row := range structRes.Stats.LabelBits {
		for v, bits := range row {
			merged[r][v] += bits
		}
	}

	accepted := structRes.Accepted
	for c, verts := range plan.BlockVerts {
		if len(verts) < 2 {
			continue
		}
		idx := make(map[int]int, len(verts))
		for i, v := range verts {
			idx[v] = i
		}
		sub := graph.New(len(verts))
		for _, e := range g.Edges() {
			iu, okU := idx[e.U]
			iv, okV := idx[e.V]
			if okU && okV {
				// Biconnected blocks share at most one vertex, so any
				// edge with both endpoints in the block belongs to it.
				sub.MustAddEdge(iu, iv)
			}
		}
		sres, err := seriesparallel.Run(sub, nil, rng, cfg.Child(fmt.Sprintf("block-%d", c))...)
		if err != nil {
			return nil, err
		}
		if sres.ProverFailed || !sres.Accepted {
			res.Reject("block")
			accepted = false
			continue
		}
		res.TotalLabelBits += sres.TotalLabelBits
		// Merge: block members carry their own labels; the separating
		// vertex's labels are deferred to the block leader.
		for r, row := range sres.NodeBits {
			if r >= len(merged) {
				break
			}
			for sv, bits := range row {
				v := verts[sv]
				if sv == 0 && c != plan.RootComp {
					merged[r][leaderOf(plan, c)] += bits
					continue
				}
				merged[r][v] += bits
			}
		}
	}
	res.Accepted = accepted
	for _, row := range merged {
		for _, bits := range row {
			if bits > res.ProofSizeBits {
				res.ProofSizeBits = bits
			}
		}
	}
	return res, nil
}
