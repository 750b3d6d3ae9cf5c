package protocol

import (
	"math/rand"

	"repro/internal/dip"
	"repro/internal/pathouter"
	"repro/internal/planar"
)

func init() {
	Register(Descriptor{
		Name:           "pathouter",
		Theorem:        "Theorem 1.2",
		Suite:          "E1",
		Summary:        "path-outerplanarity with O(log log n)-bit proofs",
		Family:         "pathouter",
		NoFamily:       "k4planted",
		Witness:        WitnessPath,
		Rounds:         pathouter.Rounds,
		BoundExpr:      "O(log log n)",
		ProofSizeBound: pathouter.ProofSizeBound,
		Prepare:        preparePathOuter,
		Exec:           runPathOuter,
	})
}

// pathWitness resolves the Hamiltonian-path witness of a pathouter/pls
// run: the instance's explicit witness when present, otherwise the
// centralized oracle's attempt.
func pathWitness(in *Instance) ([]int, bool) {
	if in.PathPos != nil {
		return in.PathPos, true
	}
	pos, err := planar.PathOuterplanarOrder(in.G)
	if err != nil {
		return nil, false
	}
	return pos, true
}

// pathRun is the prepared value of the pathouter and pls protocols: the
// engine instance and the resolved witness path (nil: none).
type pathRun struct {
	di  *dip.Instance
	pos []int
	// po is pathouter's prepared prover; pls prepares none.
	po *pathouter.Prepared
}

// preparePath resolves the witness path of in.
func preparePath(in *Instance) pathRun {
	pos, ok := pathWitness(in)
	if !ok {
		return pathRun{}
	}
	return pathRun{di: in.DIP(), pos: pos}
}

func preparePathOuter(in *Instance) (any, error) {
	run := preparePath(in)
	if run.pos == nil {
		return run, nil
	}
	p, err := pathouter.NewParams(in.G.N())
	if err != nil {
		return nil, err
	}
	run.po = pathouter.Prepare(&pathouter.Instance{G: in.G, Pos: run.pos}, p)
	return run, nil
}

func runPathOuter(prep any, rng *rand.Rand, opts ...dip.RunOption) (*Outcome, error) {
	run := prep.(pathRun)
	if run.pos == nil {
		return &Outcome{Rounds: pathouter.Rounds, ProverFailed: true}, nil
	}
	return run.po.Run(run.di, rng, opts...)
}
