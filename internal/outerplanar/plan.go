// Package outerplanar implements the outerplanarity DIP of Theorem 1.3.
//
// The protocol decomposes the graph into its biconnected components
// (block–cut tree rooted at a component R), commits the component
// structure with constant-size labels, and runs the path-outerplanarity
// protocol of Theorem 1.2 inside every component in parallel:
//
//   - stages 1 and 2 are the shared block–cut structural stage of
//     internal/blockcut, with every component spanned by the sub-path
//     P'_C (the Hamiltonian path of C minus its separating node) and
//     the connecting edge e_C; on top of its checks a node accepts only
//     if it has at most one child in its own component (so F is a path
//     there) and, as the last node of a path, is adjacent to the
//     component's separating node;
//   - stage 3 runs biconnected-outerplanarity (Theorem 6.1 =
//     path-outerplanarity plus an endpoint edge) inside each component,
//     with the separating node's labels deferred to its component
//     neighbors so that cut vertices carry O(log log n) bits total.
//
// The per-component executions run on derived sub-instances; their label
// bits are charged to the real nodes through each component's
// simulation map, under the paper's deferral accounting (DESIGN.md §7,
// implementation note 5).
package outerplanar

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/blockcut"
	"repro/internal/graph"
	"repro/internal/planar"
)

// HonestPlan computes the decomposition for an outerplanar graph using
// the centralized oracles (the prover sees the whole instance): a
// block–cut plan whose Blocks[c] is component c's Hamiltonian path P_C,
// starting at the component's separating node (the root, for the root
// component). It fails when some biconnected component is not
// outerplanar — i.e., on no-instances, where a cheating prover must
// craft its own plan.
func HonestPlan(g *graph.Graph) (*blockcut.Plan, error) {
	p, err := blockcut.HonestPlan(g, hamiltonianPath)
	if err != nil {
		return nil, fmt.Errorf("outerplanar: %w", err)
	}
	return p, nil
}

// hamiltonianPath spans a component with its Hamiltonian path from sep:
// the Hamiltonian cycle of the biconnected outerplanar component, broken
// at sep, so the non-path edges nest above the path.
func hamiltonianPath(sub *graph.Graph, sep int) (order, parent []int, err error) {
	cyc := []int{0, 1}
	if sub.N() > 2 {
		if cyc, err = planar.HamiltonianCycleOuterplanar(sub); err != nil {
			return nil, nil, err
		}
	}
	at := slices.Index(cyc, sep)
	if at == -1 {
		return nil, nil, errors.New("separating node missing from cycle")
	}
	order = make([]int, len(cyc))
	parent = make([]int, len(cyc))
	for i := range cyc {
		order[i] = cyc[(at+i)%len(cyc)]
		if i > 0 {
			parent[order[i]] = order[i-1]
		}
	}
	parent[sep] = -1
	return order, parent, nil
}
