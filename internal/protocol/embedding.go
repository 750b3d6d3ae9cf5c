package protocol

import (
	"math/rand"

	"repro/internal/dip"
	"repro/internal/embedding"
	"repro/internal/planar"
)

func init() {
	Register(Descriptor{
		Name:           "embedding",
		Theorem:        "Theorem 1.4",
		Suite:          "E3",
		Summary:        "planar-embedding verification of a given rotation system",
		Family:         "triangulation",
		NoFamily:       "twisted",
		Witness:        WitnessRotation,
		Rounds:         embedding.Rounds,
		BoundExpr:      "O(log log n)",
		ProofSizeBound: embedding.ProofSizeBound,
		Prepare:        prepareEmbedding,
		Exec:           runEmbedding,
	})
}

// rotationWitness resolves the combinatorial-embedding witness of an
// embedding run: the instance's explicit rotation when present,
// otherwise the DMP embedder's attempt.
func rotationWitness(in *Instance) (*planar.Rotation, bool) {
	if in.Rotation != nil {
		return in.Rotation, true
	}
	rot, err := planar.Embed(in.G)
	if err != nil {
		return nil, false
	}
	return rot, true
}

// prepareEmbedding prepares the run on the rotation witness; a nil
// *embedding.Prepared records that there is none.
func prepareEmbedding(in *Instance) (any, error) {
	rot, ok := rotationWitness(in)
	if !ok {
		return (*embedding.Prepared)(nil), nil
	}
	return embedding.Prepare(in.G, rot), nil
}

func runEmbedding(prep any, rng *rand.Rand, opts ...dip.RunOption) (*Outcome, error) {
	pr := prep.(*embedding.Prepared)
	if pr == nil {
		return &Outcome{Rounds: embedding.Rounds, ProverFailed: true}, nil
	}
	return pr.Run(rng, opts...)
}
