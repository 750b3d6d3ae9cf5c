package protocol

import (
	"math/rand"

	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/seriesparallel"
)

func init() {
	Register(Descriptor{
		Name:           "sp",
		Theorem:        "Theorem 1.6",
		Suite:          "E5",
		Summary:        "series-parallel recognition via ear decomposition",
		Family:         "sp",
		NoFamily:       "k4sub",
		Witness:        WitnessNone,
		Rounds:         seriesparallel.Rounds,
		BoundExpr:      "O(log log n)",
		ProofSizeBound: seriesparallel.ProofSizeBound,
		Prepare:        prepareGraph,
		Exec:           runSeriesParallel,
	})
}

func runSeriesParallel(prep any, rng *rand.Rand, opts ...dip.RunOption) (*Outcome, error) {
	return seriesparallel.Run(prep.(*graph.Graph), nil, rng, opts...)
}
