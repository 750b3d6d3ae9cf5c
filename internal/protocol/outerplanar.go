package protocol

import (
	"math/rand"

	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/outerplanar"
)

func init() {
	Register(Descriptor{
		Name:           "outerplanar",
		Theorem:        "Theorem 1.3",
		Suite:          "E2",
		Summary:        "outerplanarity via block decomposition over pathouter",
		Family:         "outerplanar",
		NoFamily:       "k4planted",
		Witness:        WitnessNone,
		Rounds:         outerplanar.Rounds,
		BoundExpr:      "O(log log n)",
		ProofSizeBound: outerplanar.ProofSizeBound,
		Prepare:        prepareGraph,
		Exec:           runOuterplanar,
	})
}

func runOuterplanar(prep any, rng *rand.Rand, opts ...dip.RunOption) (*Outcome, error) {
	return outerplanar.Run(prep.(*graph.Graph), nil, rng, opts...)
}
