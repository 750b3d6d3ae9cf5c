package multiset

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/graph"
)

// NodeInput is the local input of the standalone protocol: the node's two
// multisets and its position in the given rooted spanning tree.
type NodeInput struct {
	S1, S2     []uint64
	ParentPort int // -1 at the root
	ChildPorts []int
}

// NewInstance builds a DIP instance for multiset equality over tree
// (which must be a spanning tree of g, per Lemma 2.6's assumption).
func NewInstance(g *graph.Graph, tree *graph.Tree, s1, s2 [][]uint64) (*dip.Instance, error) {
	inst := dip.NewInstance(g)
	for v := 0; v < g.N(); v++ {
		in := NodeInput{S1: s1[v], S2: s2[v], ParentPort: -1}
		for p, u := range g.Neighbors(v) {
			if tree.Parent[v] == u {
				in.ParentPort = p
			}
			if tree.Parent[u] == v {
				in.ChildPorts = append(in.ChildPorts, p)
			}
		}
		if tree.Parent[v] != -1 && in.ParentPort == -1 {
			return nil, fmt.Errorf("multiset: parent of %d is not a neighbor", v)
		}
		inst.NodeInput[v] = in
	}
	return inst, nil
}

// Protocol returns the 2-round multiset-equality DIP. The engine always
// starts with a prover round, so round 0 is an empty assignment and the
// measured interaction is the (verifier, prover) pair of the lemma.
func Protocol(inst *dip.Instance, p Params) *dip.Protocol {
	return &dip.Protocol{
		Name:           "multiset-equality",
		ProverRounds:   2,
		VerifierRounds: 1,
		NewProver:      func() dip.Prover { return &honestProver{inst: inst, p: p} },
		Verifier:       verifier{p: p},
	}
}

type honestProver struct {
	inst *dip.Instance
	p    Params
}

func (hp *honestProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	g := hp.inst.G
	switch round {
	case 0:
		return dip.NewAssignment(g), nil
	case 1:
		n := g.N()
		parent := make([]int, n)
		s1 := make([][]uint64, n)
		s2 := make([][]uint64, n)
		var z uint64
		for v := 0; v < n; v++ {
			in := hp.inst.NodeInput[v].(NodeInput)
			s1[v], s2[v] = in.S1, in.S2
			if in.ParentPort == -1 {
				parent[v] = -1
				zv, err := coins[0][v].Reader().ReadUint(hp.p.PointBits())
				if err != nil {
					return nil, err
				}
				z = zv
			} else {
				parent[v] = g.Neighbors(v)[in.ParentPort]
			}
		}
		labels, err := HonestLabels(hp.p, parent, s1, s2, z)
		if err != nil {
			return nil, err
		}
		a := dip.NewAssignment(g)
		for v := 0; v < n; v++ {
			a.Node[v] = labels[v].Encode(hp.p)
		}
		return a, nil
	}
	return nil, fmt.Errorf("multiset: unexpected round %d", round)
}

type verifier struct {
	p Params
}

func (vf verifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	in := view.Input().(NodeInput)
	if in.ParentPort != -1 {
		return bitio.String{} // only the root speaks
	}
	var w bitio.Writer
	w.WriteUint(vf.p.SamplePoint(rng), vf.p.PointBits())
	return w.String()
}

func (vf verifier) Decide(view *dip.View) bool {
	in := view.Input().(NodeInput)
	own, err := DecodeLabel(view.Own(1), vf.p)
	if err != nil {
		return false
	}
	var parent *Label
	if in.ParentPort != -1 {
		pl, err := DecodeLabel(view.Nbr(in.ParentPort, 1), vf.p)
		if err != nil {
			return false
		}
		parent = &pl
	}
	children := make([]Label, 0, len(in.ChildPorts))
	for _, p := range in.ChildPorts {
		cl, err := DecodeLabel(view.Nbr(p, 1), vf.p)
		if err != nil {
			return false
		}
		children = append(children, cl)
	}
	var sampled uint64
	if in.ParentPort == -1 {
		z, err := view.Coin(0).Reader().ReadUint(vf.p.PointBits())
		if err != nil {
			return false
		}
		sampled = z
	}
	return CheckNode(vf.p, in.ParentPort == -1, sampled, in.S1, in.S2, own, parent, children)
}
