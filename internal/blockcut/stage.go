package blockcut

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
	"repro/internal/graph"
	"repro/internal/spantree"
)

// Params configures the structural stage: string length L (Theta(log log
// n) bits) and the amplified spanning-tree check.
type Params struct {
	L  int
	ST spantree.Params
}

// NewParams derives the structural parameters from n.
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

// structR1 is the first structural label: forest code of F plus flags.
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
	fc, err := forestcode.ReadLabel(r)
	if err != nil {
		return structR1{}, fmt.Errorf("blockcut: r1: %w", err)
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

// structCoin is a node's structural randomness: its string s_v plus the
// spanning-tree coins.
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
		return structCoin{}, fmt.Errorf("blockcut: coin: %w", err)
	}
	st, err := spantree.ReadCoin(r, p.ST)
	if err != nil {
		return structCoin{}, err
	}
	return structCoin{S: sv, ST: st}, nil
}

// structR2 is the second structural label: the node's own echoed string,
// its block's sep and lead strings, and the spanning-tree sums.
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
		return l, fmt.Errorf("blockcut: r2: %w", err)
	}
	if l.Sep, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	if l.Lead, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	if l.ST, err = spantree.ReadSum(r, p.ST); err != nil {
		return l, err
	}
	return l, nil
}

// prover is the honest prover of the structural stage for a plan.
type prover struct {
	p    Params
	plan *Plan
	g    *graph.Graph
}

func (sp *prover) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
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
			a.Node[v] = structR2{
				Self: cs[v].S,
				Sep:  cs[sp.plan.Blocks[c][0]].S,
				Lead: cs[sp.plan.Lead[c]].S,
				ST:   sums[v],
			}.encode(sp.p)
		}
		return a, nil
	}
	return nil, fmt.Errorf("blockcut: unexpected structural round %d", round)
}

// Verifier runs the structural checks shared by every block shape.
type Verifier struct {
	P Params
}

// Coins draws the node's string and its spanning-tree coins.
func (sv Verifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	return structCoin{
		S:  rng.Uint64() & ((1 << uint(sv.P.L)) - 1),
		ST: spantree.SampleCoin(sv.P.ST, rng),
	}.encode(sv.P)
}

// Decide accepts when the shared checks pass.
func (sv Verifier) Decide(view *dip.View) bool {
	_, ok := sv.Check(view)
	return ok
}

// Node is one node's decoded structural view, for checks a protocol
// layers on Verifier.Check.
type Node struct {
	own2   structR2
	nbr1   []structR1
	nbr2   []structR2
	forest forestcode.Decoded
}

// HomeChildren counts the node's children in F that are not leaders:
// its children inside its own block.
func (nd Node) HomeChildren() int {
	k := 0
	for _, cp := range nd.forest.ChildPorts {
		if !nd.nbr1[cp].Leader {
			k++
		}
	}
	return k
}

// SeesSep reports whether a neighbor's own string is the node's sep
// string, i.e. whether the node is adjacent to its block's separating
// vertex.
func (nd Node) SeesSep() bool {
	for _, l := range nd.nbr2 {
		if l.Self == nd.own2.Sep {
			return true
		}
	}
	return false
}

// Check decodes the node's view and runs the shared checks: the forest
// code, the string echo, the spanning-tree test, the cut and leader
// flags, the propagation of sep and lead strings down each block, and
// that no edge leaves a non-cut node's block. It returns the decoded
// view for further checks when all pass.
func (sv Verifier) Check(view *dip.View) (Node, bool) {
	own1, err := decodeStructR1(view.Own(0))
	if err != nil {
		return Node{}, false
	}
	own2, err := decodeStructR2(view.Own(1), sv.P)
	if err != nil {
		return Node{}, false
	}
	coin, err := decodeStructCoin(view.Coin(0), sv.P)
	if err != nil {
		return Node{}, false
	}
	deg := view.Deg()
	nbr1 := make([]structR1, deg)
	nbr2 := make([]structR2, deg)
	fcNbr := make([]forestcode.Label, deg)
	for port := 0; port < deg; port++ {
		if nbr1[port], err = decodeStructR1(view.Nbr(port, 0)); err != nil {
			return Node{}, false
		}
		if nbr2[port], err = decodeStructR2(view.Nbr(port, 1), sv.P); err != nil {
			return Node{}, false
		}
		fcNbr[port] = nbr1[port].FC
	}

	// Forest structure.
	dec, err := forestcode.Decode(own1.FC, fcNbr, nil)
	if err != nil {
		return Node{}, false
	}
	// Self string echo.
	if own2.Self != coin.S {
		return Node{}, false
	}
	// Spanning tree of F (stage 2).
	var parentSum *spantree.Sum
	nbrSums := make([]spantree.Sum, deg)
	for port := range nbrSums {
		nbrSums[port] = nbr2[port].ST
		if port == dec.ParentPort {
			parentSum = &nbrSums[port]
		}
	}
	if !spantree.CheckNode(sv.P.ST, dec.ParentPort == -1, coin.ST, own2.ST, parentSum, nbrSums) {
		return Node{}, false
	}

	// Leader children make a cut.
	leaderChildren := 0
	for _, cp := range dec.ChildPorts {
		if nbr1[cp].Leader {
			leaderChildren++
		}
	}
	if own1.Cut != (leaderChildren > 0) {
		return Node{}, false
	}
	switch {
	case dec.ParentPort == -1:
		// Root: a leader anchoring both strings at itself.
		if !own1.Leader || own2.Sep != coin.S || own2.Lead != coin.S {
			return Node{}, false
		}
	case own1.Leader:
		// A leader hangs off a cut vertex, whose string is its sep
		// string, and anchors the lead string itself.
		parent := dec.ParentPort
		if !nbr1[parent].Cut || own2.Sep != nbr2[parent].Self || own2.Lead != coin.S {
			return Node{}, false
		}
	default:
		// Inside a block, sep and lead propagate from the parent.
		parent := dec.ParentPort
		if own2.Sep != nbr2[parent].Sep || own2.Lead != nbr2[parent].Lead {
			return Node{}, false
		}
	}
	// Non-cut nodes must not have edges leaving their block.
	if !own1.Cut {
		for port := 0; port < deg; port++ {
			sameHome := nbr2[port].Sep == own2.Sep && nbr2[port].Lead == own2.Lead
			viaCut := nbr1[port].Cut && own2.Sep == nbr2[port].Self
			if !sameHome && !viaCut {
				return Node{}, false
			}
		}
	}
	return Node{own2: own2, nbr1: nbr1, nbr2: nbr2, forest: dec}, true
}

// Protocol wires the 3-round structural stage for plan on g under the
// given name: the honest prover and v, which is Verifier{P: p} or a
// verifier layering further checks on its Check.
func Protocol(name string, g *graph.Graph, p Params, plan *Plan, v dip.Verifier) *dip.Protocol {
	return &dip.Protocol{
		Name:           name,
		ProverRounds:   2,
		VerifierRounds: 1,
		NewProver:      func() dip.Prover { return &prover{p: p, plan: plan, g: g} },
		Verifier:       v,
	}
}
