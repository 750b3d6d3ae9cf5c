package pathouter

import (
	"math/rand"

	"repro/internal/dip"
)

// Run executes the prepared path-outerplanarity DIP once on di, the
// engine instance of the prepared graph, returning the unified outcome
// every protocol package exposes. Callers that run many times pass the
// same di — the dense frozen form is memoized on it, so repeated runs
// freeze once. A prover that cannot label the instance surfaces as
// ProverFailed (the verifier rejects missing labels), not as an error;
// context aborts still propagate as errors.
func (pr *Prepared) Run(di *dip.Instance, rng *rand.Rand, opts ...dip.RunOption) (*dip.Outcome, error) {
	res, err := pr.Protocol().RunOnce(di, rng, opts...)
	if err != nil {
		if dip.Aborted(err) {
			return nil, err
		}
		return &dip.Outcome{Rounds: Rounds, ProverFailed: true}, nil
	}
	return dip.OutcomeOf(res, Rounds), nil
}
