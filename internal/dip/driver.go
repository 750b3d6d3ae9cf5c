package dip

import "math/rand"

// Protocol bundles a prover factory and a verifier so experiments can run
// many independent executions of the same protocol on the same instance.
type Protocol struct {
	Name string
	// ProverRounds and VerifierRounds define the interaction schedule
	// P V P V P ... with ProverRounds prover rounds in total.
	ProverRounds   int
	VerifierRounds int
	// NewProver builds a fresh prover for one execution (provers are
	// allowed to carry per-execution state between their rounds).
	NewProver func() Prover
	Verifier  Verifier
}

// Rounds returns the total number of interaction rounds.
func (p *Protocol) Rounds() int { return p.ProverRounds + p.VerifierRounds }

// RunOnce executes the protocol once on inst, on a Runner built for
// the run. Options attach a tracer and span; the protocol's name is
// applied as the event identity tag unless an explicit WithProtocol
// option overrides it.
func (p *Protocol) RunOnce(inst *Instance, rng *rand.Rand, opts ...RunOption) (*Result, error) {
	tagged := p.tagged(opts)
	return newEngine(inst, tagged).Run(p.NewProver(), p.Verifier, p.ProverRounds, p.VerifierRounds, rng, tagged...)
}

// engine is what RunOnce and Repeat execute on.
type engine interface {
	Run(p Prover, v Verifier, proverRounds, verifierRounds int, rng *rand.Rand, opts ...RunOption) (*Result, error)
}

// newEngine returns a Runner on inst, or the test oracle's engine when
// the options carry one (see RunConfig.oracle).
func newEngine(inst *Instance, opts []RunOption) engine {
	if oracle := NewRunConfig(opts...).oracle; oracle != nil {
		return oracle(inst)
	}
	return NewRunner(inst)
}

// tagged prepends the protocol's identity tag to opts.
func (p *Protocol) tagged(opts []RunOption) []RunOption {
	if p.Name == "" {
		return opts
	}
	return append([]RunOption{WithProtocol(p.Name)}, opts...)
}

// Trial summarizes repeated executions.
type Trial struct {
	Runs         int
	Accepts      int
	MaxLabelBits int
	MaxCoinBits  int
	Rounds       int
}

// AcceptRate returns the fraction of accepting runs.
func (t Trial) AcceptRate() float64 {
	if t.Runs == 0 {
		return 0
	}
	return float64(t.Accepts) / float64(t.Runs)
}

// Repeat executes the protocol runs times with independent randomness and
// aggregates outcomes; protocols use it for completeness (expect rate 1 on
// yes-instances with the honest prover) and soundness (expect low rate on
// no-instances against adversarial provers). One Runner serves every
// run, so the frozen instance and the per-node rngs are reused across
// all of them.
func (p *Protocol) Repeat(inst *Instance, runs int, rng *rand.Rand, opts ...RunOption) (Trial, error) {
	t := Trial{Runs: runs, Rounds: p.Rounds()}
	tagged := p.tagged(opts)
	runner := newEngine(inst, tagged)
	for i := 0; i < runs; i++ {
		res, err := runner.Run(p.NewProver(), p.Verifier, p.ProverRounds, p.VerifierRounds, rng, tagged...)
		if err != nil {
			return t, err
		}
		if res.Accepted {
			t.Accepts++
		}
		if res.Stats.MaxLabelBits > t.MaxLabelBits {
			t.MaxLabelBits = res.Stats.MaxLabelBits
		}
		if res.Stats.MaxCoinBits > t.MaxCoinBits {
			t.MaxCoinBits = res.Stats.MaxCoinBits
		}
	}
	return t, nil
}
