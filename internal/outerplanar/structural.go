package outerplanar

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
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
	fcBits, err := r.ReadString(forestcode.LabelBits)
	if err != nil {
		return structR1{}, fmt.Errorf("outerplanar: r1: %w", err)
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
		return structCoin{}, fmt.Errorf("outerplanar: coin: %w", err)
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

// structR2 is the second structural label: the node's own echoed string,
// its component's sep and lead strings, and the spanning-tree sums.
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
		return l, fmt.Errorf("outerplanar: r2: %w", err)
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

// structProver is the honest prover of the structural stage for a plan.
type structProver struct {
	p    Params
	plan *Plan
	inst *dip.Instance
}

func (sp *structProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	g := sp.inst.G
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
			sep := sp.plan.Paths[c][0]
			lead := sp.plan.Paths[c][1]
			if c == sp.plan.RootComp {
				// The root component anchors both strings to its first
				// node, which closes the Hamiltonian cycle check there.
				sep, lead = sp.plan.Root, sp.plan.Root
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
	return nil, fmt.Errorf("outerplanar: unexpected structural round %d", round)
}

// structVerifier runs the stage-1/2 local checks.
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

	// Forest structure.
	dec, err := forestcode.Decode(own1.FC, fcNbr)
	if err != nil {
		return false
	}
	// Self string echo.
	if own2.Self != coin.S {
		return false
	}
	// Spanning tree of F (stage 2).
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

	// Children: at most one home-path child; leader children make a cut.
	pathChildren := 0
	leaderChildren := 0
	for _, cp := range dec.ChildPorts {
		if nbr1[cp].Leader {
			leaderChildren++
		} else {
			pathChildren++
		}
	}
	if pathChildren > 1 {
		return false
	}
	if own1.Cut != (leaderChildren > 0) {
		return false
	}
	// Root: must be a leader with no parent; leaders otherwise hang off
	// cut vertices.
	if dec.ParentPort == -1 {
		if !own1.Leader {
			return false
		}
		if own2.Sep != coin.S || own2.Lead != coin.S {
			return false
		}
	} else if own1.Leader {
		if !nbr1[dec.ParentPort].Cut {
			return false
		}
		if own2.Sep != nbr2[dec.ParentPort].Self {
			return false
		}
		if own2.Lead != coin.S {
			return false
		}
	} else {
		// Mid-path: home values propagate from the parent.
		if own2.Sep != nbr2[dec.ParentPort].Sep || own2.Lead != nbr2[dec.ParentPort].Lead {
			return false
		}
	}
	// Non-cut nodes must not have edges leaving their component.
	if !own1.Cut {
		for port := 0; port < view.Deg; port++ {
			sameHome := nbr2[port].Sep == own2.Sep && nbr2[port].Lead == own2.Lead
			viaCut := nbr1[port].Cut && own2.Sep == nbr2[port].Self
			if !sameHome && !viaCut {
				return false
			}
		}
	}
	// Hamiltonian-cycle closure (Theorem 6.1): the last node of a home
	// path must be adjacent to the component's first node.
	if pathChildren == 0 {
		found := false
		for port := 0; port < view.Deg; port++ {
			if nbr2[port].Self == own2.Sep {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// StructuralProtocol wires the 3-round structural stage.
func StructuralProtocol(inst *dip.Instance, p Params, plan *Plan) *dip.Protocol {
	return &dip.Protocol{
		Name:           "outerplanar-structural",
		ProverRounds:   2,
		VerifierRounds: 1,
		NewProver:      func() dip.Prover { return &structProver{p: p, plan: plan, inst: inst} },
		Verifier:       structVerifier{p: p},
	}
}
