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
// Every edge of T must be an edge of g; an edge without input is off T.
func NewInstance(g *graph.Graph, treeEdges []graph.Edge) *dip.Instance {
	inst := dip.NewInstance(g)
	inst.EdgeInput = make([]any, g.M())
	for _, e := range treeEdges {
		id := g.EdgeID(e.U, e.V)
		if id < 0 {
			panic(fmt.Sprintf("spantree: tree edge (%d,%d) not in graph", e.U, e.V))
		}
		inst.EdgeInput[id] = EdgeInput{OnTree: true}
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
	if len(inst.EdgeInput) != g.M() {
		return nil, errors.New("spantree: instance carries no tree input")
	}
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
			eids := g.PortEdgeIDs(v)
			for p, u := range g.Neighbors(v) {
				if ei, _ := inst.EdgeInput[eids[p]].(EdgeInput); !ei.OnTree || seen[u] {
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

// row is one node's two node labels, decoded once per run (see
// dip.RowVerifier): its forest-code label, its root mark and its sum.
type row struct {
	fc   forestcode.Label
	root bool
	sum  Sum
}

// Rows returns the codec that decodes a node's row from its labels.
func (vf verifier) Rows() dip.Rows {
	p := vf.p
	return dip.RowsOf(func(labels []bitio.String, w *row) bool { return w.decode(labels, p) })
}

func (w *row) decode(labels []bitio.String, p Params) bool {
	if labels[0].Len() != forestcode.LabelBits+1 {
		return false
	}
	r := labels[0].Reader()
	fc, err := forestcode.ReadLabel(r)
	if err != nil {
		return false
	}
	root, _ := r.ReadBool()
	sum, err := DecodeSum(labels[1], p)
	if err != nil {
		return false
	}
	*w = row{fc: fc, root: root, sum: sum}
	return true
}

func (vf verifier) Decide(view *dip.View) bool {
	own, ok := dip.OwnRow[row](view)
	if !ok {
		return false
	}
	deg := view.Deg()
	nbr := make([]*row, deg)
	fcNbr := make([]forestcode.Label, deg)
	for p := range nbr {
		if nbr[p], ok = dip.NbrRow[row](view, p); !ok {
			return false
		}
		fcNbr[p] = nbr[p].fc
	}
	dec, err := forestcode.Decode(own.fc, fcNbr, nil)
	if err != nil {
		return false
	}
	// The decoded structure must claim root consistently with the mark.
	if own.root != (dec.ParentPort == -1) {
		return false
	}
	// The decoded forest must match the input T exactly: the T-ports are
	// the parent port plus the child ports.
	want := make([]bool, deg)
	if dec.ParentPort != -1 {
		want[dec.ParentPort] = true
	}
	for _, p := range dec.ChildPorts {
		want[p] = true
	}
	for p := 0; p < deg; p++ {
		ei, _ := view.EdgeIn(p).(EdgeInput)
		if ei.OnTree != want[p] {
			return false
		}
	}
	coin, err := DecodeCoin(view.Coin(0), vf.p)
	if err != nil {
		return false
	}
	var parentSum *Sum
	nbrSums := make([]Sum, deg)
	for p := range nbrSums {
		nbrSums[p] = nbr[p].sum
		if p == dec.ParentPort {
			parentSum = &nbrSums[p]
		}
	}
	return CheckNode(vf.p, dec.ParentPort == -1, coin, own.sum, parentSum, nbrSums)
}
