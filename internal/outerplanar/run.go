package outerplanar

import (
	"fmt"
	"math/rand"

	"repro/internal/blockcut"
	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/pathouter"
)

// Rounds is the declared interaction-round count of Theorem 1.3: the
// 3-round structural stage runs inside the 5 rounds of the component
// stages.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.3 in
// bits: O(log log n), scaled from the pathouter bound to cover the
// structural-stage labels and the deferred separating-node copies the
// merge charges to component neighbors (paper §6). delta is unused. It
// applies to honest runs on the paper's yes-instance families; the
// bound-conformance test in internal/protocol asserts it across a size
// sweep.
func ProofSizeBound(n, delta int) int {
	p, err := pathouter.NewParams(n)
	if err != nil {
		return 0
	}
	return 48 * p.L
}

// pathVerifier layers the Theorem 6.1 path shape on the shared
// structural checks.
type pathVerifier struct {
	blockcut.Verifier
}

func (pv pathVerifier) Decide(view *dip.View) bool {
	nd, ok := pv.Check(view)
	if !ok {
		return false
	}
	switch nd.HomeChildren() {
	case 0:
		// Hamiltonian-cycle closure: the last node of a component's
		// path is adjacent to the component's first node.
		return nd.SeesSep()
	case 1:
		return true
	}
	// F is a path inside every component.
	return false
}

// Run executes the composed outerplanarity DIP on g. If plan is nil the
// honest prover derives it with the centralized oracles; a cheating
// prover passes its own plan (soundness experiments do this with crafted
// decompositions), listing each component along its path in Blocks.
// Options attach a tracer: the composite opens its own span and nests
// the structural stage and every component sub-execution under it. Rejecting stages surface in the outcome's Rejections map
// under "structural" (stage 1/2) and "component" (one count per
// rejecting component sub-run).
func Run(g *graph.Graph, plan *blockcut.Plan, rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	cfg := dip.NewRunConfig(opts...)
	defer cfg.CompositeSpan("outerplanar", g.N(), Rounds, &res)()
	res = &dip.Outcome{Rounds: Rounds}
	if plan == nil {
		plan, err = HonestPlan(g)
		if err != nil {
			res.ProverFailed = true
			return res, nil
		}
	}
	p := blockcut.NewParams(g.N())

	// Stage 1+2: structural protocol on the real graph.
	di := dip.NewInstance(g)
	stage := blockcut.Protocol("outerplanar-structural", g, p, plan, pathVerifier{blockcut.Verifier{P: p}})
	structRes, err := stage.RunOnce(di, rng, cfg.Child("structural")...)
	if err != nil {
		return nil, fmt.Errorf("outerplanar: structural stage: %w", err)
	}
	if !structRes.Accepted {
		res.Reject("structural")
	}
	// The composed protocol has 3 prover rounds; structural labels ride
	// in the first two.
	charges := dip.NewCharges(g.N(), 3)
	charges.Add(nil, structRes.Stats.LabelBits, structRes.Stats.TotalLabelBits)

	// Stage 3: path-outerplanarity in every component, numbered along
	// its path. A prover that cannot label a component loses that
	// component: the verifier there rejects.
	accepted := structRes.Accepted
	subs := blockcut.Induced(g.N(), plan.Blocks, g.Edges())
	for ci, path := range plan.Blocks {
		sub := subs[ci]
		if sub.N() < 2 {
			return nil, fmt.Errorf("outerplanar: degenerate component %d", ci)
		}
		pp, err := pathouter.NewParams(sub.N())
		if err != nil {
			return nil, err
		}
		pos := make([]int, len(path))
		for i := range pos {
			pos[i] = i
		}
		inst := &pathouter.Instance{G: sub, Pos: pos}
		sres, err := pathouter.Prepare(inst, pp).Run(dip.NewInstance(sub), rng, cfg.Child(fmt.Sprintf("component-%d", ci))...)
		if err != nil {
			return nil, err
		}
		if !sres.Accepted {
			res.Reject("component")
			accepted = false
		}
		charges.Add(componentMap(sub, path), sres.NodeBits, sres.TotalLabelBits)
	}
	res.Accepted = accepted
	res.ProofSizeBits, res.TotalLabelBits = charges.ProofSizeBits(), charges.Total
	return res, nil
}

// componentMap simulates a component execution on real nodes: sub-vertex
// i of sub is path[i] and holds its own labels, except sub-vertex 0, the
// separating node, whose labels are deferred to each of its component
// neighbors (paper §6), so cut vertices stay small no matter how many
// components meet there.
func componentMap(sub *graph.Graph, path []int) *dip.SimMap {
	sep := make([]int, 0, sub.Degree(0))
	for _, u := range sub.Neighbors(0) {
		sep = append(sep, path[u])
	}
	m := dip.NewSimMap(len(path), len(path)-1+len(sep))
	m.Add(sep...)
	for _, v := range path[1:] {
		m.Add(v)
	}
	return m
}
