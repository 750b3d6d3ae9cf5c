package pathouter

import (
	"repro/internal/bitio"
	"repro/internal/dip"
)

// Prepared is the coin-free half of a path-outerplanarity run: the
// witness check and the honest prover's first round, which precedes
// every coin. Each run forks the prover state round 1 left behind, so
// one Prepared serves any number of runs, concurrent ones included.
type Prepared struct {
	P    Params
	base *Honest // nil when err is set
	err  error   // why the prover cannot label: its first round reports it
}

// Prepare validates the witness of inst and computes the honest
// prover's round-1 assignment.
func Prepare(inst *Instance, p Params) *Prepared {
	h, err := NewHonest(p, inst)
	return &Prepared{P: p, base: h, err: err}
}

// Protocol wires the 5-round path-outerplanarity DIP with an honest
// prover forked from pr. The DIP instance carries no local inputs: the
// task input is the bare graph.
func (pr *Prepared) Protocol() *dip.Protocol {
	return newProtocol("path-outerplanarity", pr.P, func() dip.Prover {
		if pr.err != nil {
			return errorProver{pr.err}
		}
		return pr.base.fork()
	})
}

// Protocol wires the DIP with the honest prover for inst.
func Protocol(inst *Instance, p Params) *dip.Protocol {
	return Prepare(inst, p).Protocol()
}

// AdversarialProtocol wires the verifier against an arbitrary prover
// factory, for soundness experiments.
func AdversarialProtocol(p Params, newProver func() dip.Prover) *dip.Protocol {
	return newProtocol("path-outerplanarity-adversarial", p, newProver)
}

// newProtocol wires the interaction schedule and the verifier around a
// prover factory.
func newProtocol(name string, p Params, newProver func() dip.Prover) *dip.Protocol {
	return &dip.Protocol{
		Name:           name,
		ProverRounds:   Rounds - 2,
		VerifierRounds: 2,
		NewProver:      newProver,
		Verifier:       Verifier{P: p},
	}
}

// errorProver surfaces witness-validation failures as prover errors.
type errorProver struct{ err error }

func (e errorProver) Round(int, [][]bitio.String) (*dip.Assignment, error) {
	return nil, e.err
}
