package spantree

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
	"repro/internal/graph"
)

// EdgeInput marks the candidate subgraph T on the wire: each node knows
// which of its incident edges belong to T, exactly as in the Lemma 2.5
// task statement.
type EdgeInput struct {
	OnTree bool
}

// NewInstance wraps g and the candidate edge set T into a DIP instance.
func NewInstance(g *graph.Graph, treeEdges []graph.Edge) *dip.Instance {
	inst := dip.NewInstance(g)
	for _, e := range g.Edges() {
		inst.EdgeInput[e] = EdgeInput{OnTree: false}
	}
	for _, e := range treeEdges {
		inst.EdgeInput[graph.Canon(e.U, e.V)] = EdgeInput{OnTree: true}
	}
	return inst
}

// Prepared is the coin-free half of a spanning-tree run on inst: the
// input T oriented from vertex 0 and committed by forest code, the
// prover's first round. It holds no per-run state, so one Prepared is
// the honest prover of any number of runs, concurrent ones included.
type Prepared struct {
	inst   *dip.Instance
	p      Params
	parent []int
	r0     *dip.Assignment
	err    error // T has no orientation: the first round reports it
}

// Prepare orients and commits the input T of inst.
func Prepare(inst *dip.Instance, p Params) *Prepared {
	pr := &Prepared{inst: inst, p: p}
	pr.parent, pr.err = treeParents(inst)
	if pr.err != nil {
		return pr
	}
	g := inst.G
	labels, err := forestcode.EncodeForest(g, pr.parent)
	if err != nil {
		pr.err = err
		return pr
	}
	pr.r0 = dip.NewAssignment(g)
	for v := 0; v < g.N(); v++ {
		var w bitio.Writer
		w.WriteString(labels[v].Encode())
		w.WriteBool(pr.parent[v] == -1)
		pr.r0.Node[v] = w.String()
	}
	return pr
}

// Instance returns the engine instance pr was prepared on.
func (pr *Prepared) Instance() *dip.Instance { return pr.inst }

// Protocol returns the 3-round spanning-tree verification DIP with pr as
// its honest prover.
func (pr *Prepared) Protocol() *dip.Protocol {
	return &dip.Protocol{
		Name:           "spantree",
		ProverRounds:   2,
		VerifierRounds: 1,
		NewProver:      func() dip.Prover { return pr },
		Verifier:       verifier{p: pr.p},
	}
}

// Protocol returns the 3-round spanning-tree verification DIP for inst.
func Protocol(inst *dip.Instance, p Params) *dip.Protocol {
	return Prepare(inst, p).Protocol()
}

// Round is the honest prover: it commits to the input T rooted at
// vertex 0 (round 0) and answers the coins with telescoping sums
// (round 1). If T is not actually a spanning tree it still commits to
// the structure as given, which the verifier then catches.
func (pr *Prepared) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	if pr.err != nil {
		return nil, pr.err
	}
	g := pr.inst.G
	switch round {
	case 0:
		return pr.r0, nil
	case 1:
		cs := make([]Coin, g.N())
		for v := range cs {
			c, err := DecodeCoin(coins[0][v], pr.p)
			if err != nil {
				return nil, err
			}
			cs[v] = c
		}
		sums, err := HonestSums(pr.parent, cs)
		if err != nil {
			return nil, err
		}
		a := dip.NewAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = sums[v].Encode(pr.p)
		}
		return a, nil
	}
	return nil, fmt.Errorf("spantree: unexpected prover round %d", round)
}

// treeParents orients the input edge set T as a tree rooted at 0 by BFS
// over T edges. If T is not a connected spanning tree this produces some
// parent structure with multiple roots (for forests) or fails (cycles are
// broken arbitrarily by BFS, leaving extra roots).
func treeParents(inst *dip.Instance) ([]int, error) {
	g := inst.G
	n := g.N()
	parent := make([]int, n)
	seen := make([]bool, n)
	for v := range parent {
		parent[v] = -2
	}
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		seen[start] = true
		parent[start] = -1
		queue := []int{start}
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			for _, u := range g.Neighbors(v) {
				ei, _ := inst.EdgeInput[graph.Canon(v, u)].(EdgeInput)
				if !ei.OnTree || seen[u] {
					continue
				}
				seen[u] = true
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	for v := range parent {
		if parent[v] == -2 {
			return nil, errors.New("spantree: unreached vertex")
		}
	}
	return parent, nil
}

// verifier implements the distributed checks.
type verifier struct {
	p Params
}

func (vf verifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	return SampleCoin(vf.p, rng).Encode(vf.p)
}

func (vf verifier) Decide(view *dip.View) bool {
	own, nbr, ok := decodeRound0(view)
	if !ok {
		return false
	}
	dec, err := forestcode.Decode(own.fc, fcLabels(nbr))
	if err != nil {
		return false
	}
	// The decoded structure must claim root consistently with the mark.
	if own.root != (dec.ParentPort == -1) {
		return false
	}
	// The decoded forest must match the input T exactly: the T-ports are
	// the parent port plus the child ports.
	want := map[int]bool{}
	if dec.ParentPort != -1 {
		want[dec.ParentPort] = true
	}
	for _, p := range dec.ChildPorts {
		want[p] = true
	}
	for p := 0; p < view.Deg; p++ {
		ei, _ := view.EdgeIn[p].(EdgeInput)
		if ei.OnTree != want[p] {
			return false
		}
	}
	coin, err := DecodeCoin(view.Coins[0], vf.p)
	if err != nil {
		return false
	}
	ownSum, err := DecodeSum(view.Own[1], vf.p)
	if err != nil {
		return false
	}
	var parentSum *Sum
	nbrSums := make([]Sum, view.Deg)
	for p := 0; p < view.Deg; p++ {
		s, err := DecodeSum(view.Nbr[p][1], vf.p)
		if err != nil {
			return false
		}
		nbrSums[p] = s
		if p == dec.ParentPort {
			parentSum = &nbrSums[p]
		}
	}
	return CheckNode(vf.p, dec.ParentPort == -1, coin, ownSum, parentSum, nbrSums)
}

type round0Label struct {
	fc   forestcode.Label
	root bool
}

func decodeRound0(view *dip.View) (own round0Label, nbr []round0Label, ok bool) {
	parse := func(s bitio.String) (round0Label, bool) {
		if s.Len() != forestcode.LabelBits+1 {
			return round0Label{}, false
		}
		r := s.Reader()
		fcBits, _ := r.ReadString(forestcode.LabelBits)
		fc, err := forestcode.DecodeLabel(fcBits)
		if err != nil {
			return round0Label{}, false
		}
		root, _ := r.ReadBool()
		return round0Label{fc: fc, root: root}, true
	}
	own, ok = parse(view.Own[0])
	if !ok {
		return
	}
	nbr = make([]round0Label, view.Deg)
	for p := 0; p < view.Deg; p++ {
		nbr[p], ok = parse(view.Nbr[p][0])
		if !ok {
			return
		}
	}
	return own, nbr, true
}

func fcLabels(ls []round0Label) []forestcode.Label {
	out := make([]forestcode.Label, len(ls))
	for i, l := range ls {
		out[i] = l.fc
	}
	return out
}
