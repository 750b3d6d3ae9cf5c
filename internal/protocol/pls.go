package protocol

import (
	"math/rand"

	"repro/internal/dip"
	"repro/internal/pls"
)

func init() {
	Register(Descriptor{
		Name:           "pls",
		Theorem:        "Section 1.1 baseline",
		Suite:          "E11",
		Summary:        "one-round Θ(log n) proof labeling scheme baseline",
		Family:         "pathouter",
		NoFamily:       "k4planted",
		Witness:        WitnessPath,
		Rounds:         pls.Rounds,
		BoundExpr:      "Θ(log n)",
		ProofSizeBound: pls.ProofSizeBound,
		Prepare: func(in *Instance) (any, error) {
			return preparePath(in), nil
		},
		Exec: runPLS,
	})
}

func runPLS(prep any, rng *rand.Rand, opts ...dip.RunOption) (*Outcome, error) {
	run := prep.(pathRun)
	if run.pos == nil {
		return &Outcome{Rounds: pls.Rounds, ProverFailed: true}, nil
	}
	return pls.Run(run.di, run.pos, rng, opts...)
}
