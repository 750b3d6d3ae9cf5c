package protocol

import (
	"math/rand"

	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/treewidth2"
)

func init() {
	Register(Descriptor{
		Name:           "treewidth2",
		Theorem:        "Theorem 1.7",
		Suite:          "E6",
		Summary:        "treewidth ≤ 2 via biconnected-component series-parallel runs",
		Family:         "treewidth2",
		NoFamily:       "k4sub",
		Witness:        WitnessNone,
		Rounds:         treewidth2.Rounds,
		BoundExpr:      "O(log log n)",
		ProofSizeBound: treewidth2.ProofSizeBound,
		Prepare:        prepareGraph,
		Exec:           runTreewidth2,
	})
}

func runTreewidth2(prep any, rng *rand.Rand, opts ...dip.RunOption) (*Outcome, error) {
	return treewidth2.Run(prep.(*graph.Graph), nil, rng, opts...)
}
