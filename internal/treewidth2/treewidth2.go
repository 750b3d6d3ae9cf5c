// Package treewidth2 implements the treewidth-at-most-2 DIP of Theorem
// 1.7 via Lemma 8.2: a graph has treewidth <= 2 iff every biconnected
// component is series-parallel.
//
// The protocol runs the shared block–cut structural stage of
// internal/blockcut with every block spanned by a DFS tree rooted at
// the block's separating vertex (so the root has exactly one child —
// the block leader), then runs the Theorem 1.6 series-parallel protocol
// inside every block, deferring the separating vertex's labels to the
// block leader.
package treewidth2

import (
	"fmt"
	"math/rand"

	"repro/internal/blockcut"
	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/seriesparallel"
)

// HonestPlan derives the decomposition. It never fails structurally (the
// block-cut tree always exists); non-SP blocks surface later when the
// per-block sub-protocol rejects.
func HonestPlan(g *graph.Graph) (*blockcut.Plan, error) {
	p, err := blockcut.HonestPlan(g, dfsSpan)
	if err != nil {
		return nil, fmt.Errorf("treewidth2: %w", err)
	}
	return p, nil
}

// dfsSpan spans a block with its DFS tree from sep, listing the block's
// vertices sep first and the rest in local order.
func dfsSpan(sub *graph.Graph, sep int) (order, parent []int, err error) {
	parent = dfsTree(sub, sep)
	order = append(order, sep)
	for v := range parent {
		if v != sep {
			order = append(order, v)
		}
	}
	return order, parent, nil
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
func Run(g *graph.Graph, plan *blockcut.Plan, rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	cfg := dip.NewRunConfig(opts...)
	defer cfg.CompositeSpan("treewidth2", g.N(), Rounds, &res)()
	res = &dip.Outcome{Rounds: Rounds}
	if plan == nil {
		plan, err = HonestPlan(g)
		if err != nil {
			res.ProverFailed = true
			return res, nil
		}
	}
	p := blockcut.NewParams(g.N())
	di := dip.NewInstance(g)
	stage := blockcut.Protocol("treewidth2-structural", g, p, plan, blockcut.Verifier{P: p})
	structRes, err := stage.RunOnce(di, rng, cfg.Child("structural")...)
	if err != nil {
		return nil, fmt.Errorf("treewidth2: structural stage: %w", err)
	}
	if !structRes.Accepted {
		res.Reject("structural")
	}
	charges := dip.NewCharges(g.N(), 3)
	charges.Add(nil, structRes.Stats.LabelBits, structRes.Stats.TotalLabelBits)

	accepted := structRes.Accepted
	subs := blockcut.Induced(g.N(), plan.Blocks, g.Edges())
	for c, verts := range plan.Blocks {
		if len(verts) < 2 {
			continue
		}
		sres, err := seriesparallel.Run(subs[c], nil, rng, cfg.Child(fmt.Sprintf("block-%d", c))...)
		if err != nil {
			return nil, err
		}
		if sres.ProverFailed || !sres.Accepted {
			res.Reject("block")
			accepted = false
			continue
		}
		charges.Add(blockMap(verts, plan.Lead[c]), sres.NodeBits, sres.TotalLabelBits)
	}
	res.Accepted = accepted
	res.ProofSizeBits, res.TotalLabelBits = charges.ProofSizeBits(), charges.Total
	return res, nil
}

// blockMap simulates a block's series-parallel execution, whose charges
// already sit on the block's own vertices, on real nodes: block vertex
// i is verts[i], except that the separating vertex's labels are
// deferred to the block leader lead (the root block's lead is its root,
// its own first vertex).
func blockMap(verts []int, lead int) *dip.SimMap {
	m := dip.NewSimMap(len(verts), len(verts))
	m.Add(lead)
	for _, v := range verts[1:] {
		m.Add(v)
	}
	return m
}
