package protocol

import (
	"math/rand"

	"repro/internal/dip"
	"repro/internal/planarity"
)

func init() {
	Register(Descriptor{
		Name:           "planarity",
		Theorem:        "Theorem 1.5",
		Suite:          "E4",
		Summary:        "planarity with prover-shipped embedding, O(log log n + log Δ)",
		Family:         "triangulation",
		NoFamily:       "k5sub",
		Witness:        WitnessRotation,
		Rounds:         planarity.Rounds,
		BoundExpr:      "O(log log n + log Δ)",
		ProofSizeBound: planarity.ProofSizeBound,
		Prepare: func(in *Instance) (any, error) {
			return planarity.Prepare(in.G, in.Rotation), nil
		},
		Exec: func(prep any, rng *rand.Rand, opts ...dip.RunOption) (*Outcome, error) {
			return prep.(*planarity.Prepared).Run(rng, opts...)
		},
	})
}
