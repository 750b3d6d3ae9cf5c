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
	endRun := cfg.CompositeSpan("outerplanar", g.N(), Rounds)
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
	res.TotalLabelBits = structRes.Stats.TotalLabelBits

	// Per-node per-round label bits, merged across stages. The composed
	// protocol has 3 prover rounds; structural labels ride in the first
	// two.
	merged := make([][]int, 3)
	for r := range merged {
		merged[r] = make([]int, g.N())
	}
	for r, row := range structRes.Stats.LabelBits {
		for v, bits := range row {
			merged[r][v] += bits
		}
	}

	// Stage 3: path-outerplanarity in every component, numbered along
	// its path.
	accepted := structRes.Accepted
	for ci, path := range plan.Blocks {
		sub := blockcut.Induced(path, g.Edges())
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
		sdi := dip.NewInstance(sub)
		sres, err := pathouter.Protocol(inst, pp).RunOnce(sdi, rng, cfg.Child(fmt.Sprintf("component-%d", ci))...)
		if err != nil {
			if dip.Aborted(err) {
				return nil, err
			}
			// A prover that cannot label a component loses that
			// component: the verifier there rejects.
			res.Reject("component")
			accepted = false
			continue
		}
		if !sres.Accepted {
			res.Reject("component")
			accepted = false
		}
		res.TotalLabelBits += sres.Stats.TotalLabelBits
		mergeComponentBits(merged, sres.Stats.LabelBits, sub, path)
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

// mergeComponentBits charges a component execution's label bits to real
// nodes: ordinary members carry their own labels; the separating node's
// labels are deferred to each of its component neighbors (paper §6), so
// cut vertices stay small no matter how many components meet there.
// Sub-vertex i of sub is path[i]; sub-vertex 0 is the separating node.
func mergeComponentBits(merged [][]int, bits [][]int, sub *graph.Graph, path []int) {
	for r, row := range bits {
		if r >= len(merged) {
			break
		}
		for sv, b := range row {
			if sv == 0 {
				// Defer the separating node's bits to its neighbors
				// within the component.
				for _, u := range sub.Neighbors(0) {
					merged[r][path[u]] += b
				}
				continue
			}
			merged[r][path[sv]] += b
		}
	}
}
