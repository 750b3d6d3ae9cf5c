package seriesparallel

import (
	"fmt"
	"math/rand"

	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/pathouter"
)

// Rounds is the declared interaction-round count of Theorem 1.6.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.6 in
// bits: O(log log n), scaled from the pathouter bound to cover the
// structural-stage labels and the deferred ear-endpoint copies of the
// ears-as-edges simulation. delta is unused. Applies to honest runs on
// yes-instances; asserted by the bound-conformance test in
// internal/protocol.
func ProofSizeBound(n, delta int) int {
	p, err := pathouter.NewParams(n)
	if err != nil {
		return 0
	}
	return 48 * p.L
}

// Run executes the composed series-parallel DIP on g. A nil plan invokes
// the honest prover (SP decomposition via graph reduction); cheating
// provers supply their own plans. Rejecting stages surface in the
// outcome's Rejections map under "structural" and "nesting" (one count
// per rejecting ear sub-run); the outcome's NodeBits carry the merged
// per-node per-round accounting for composites layering on top
// (Theorem 1.7).
func Run(g *graph.Graph, plan *Plan, rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	cfg := dip.NewRunConfig(opts...)
	defer cfg.CompositeSpan("seriesparallel", g.N(), Rounds, &res)()
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
		return nil, fmt.Errorf("seriesparallel: structural stage: %w", err)
	}
	if !structRes.Accepted {
		res.Reject("structural")
	}
	charges := dip.NewCharges(g.N(), 3)
	charges.Add(nil, structRes.Stats.LabelBits, structRes.Stats.TotalLabelBits)

	accepted := structRes.Accepted
	for nix, ni := range plan.NestingInstances() {
		pp, err := pathouter.NewParams(ni.G.N())
		if err != nil {
			return nil, err
		}
		inst := &pathouter.Instance{G: ni.G, Pos: ni.Pos}
		sres, err := pathouter.Prepare(inst, pp).Run(dip.NewInstance(ni.G), rng, cfg.Child(fmt.Sprintf("ear-%d", nix))...)
		if err != nil {
			return nil, err
		}
		if !sres.Accepted {
			res.Reject("nesting")
			accepted = false
		}
		charges.Add(earMap(ni, plan), sres.NodeBits, sres.TotalLabelBits)
	}
	res.Accepted = accepted
	res.NodeBits = charges.Bits
	res.ProofSizeBits, res.TotalLabelBits = charges.ProofSizeBits(), charges.Total
	return res, nil
}

// earMap simulates an ear execution on real nodes: interior nodes hold
// their own labels; the ear's two endpoints, which live on the host
// ear, have their labels deferred to the adjacent walk vertex, as in
// the paper's ears-as-edges simulation. Nesting instances have at least
// two vertices.
func earMap(ni NestingInstance, plan *Plan) *dip.SimMap {
	k := len(ni.Orig)
	m := dip.NewSimMap(k, k)
	for sv, v := range ni.Orig {
		switch {
		case plan.EarOf[v] == ni.Ear:
			m.Add(v)
		case sv == 0:
			m.Add(ni.Orig[1])
		case sv == k-1:
			m.Add(ni.Orig[k-2])
		default:
			m.Add(v)
		}
	}
	return m
}
