package dip

import (
	"slices"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// Adversary is a fault injector interposed at the engine boundary: both
// Runner and the channel engine its tests hold as an oracle consult it
// (when attached via WithAdversary) at the same three points of the
// interaction, in the same order, so a seeded adversary behaves
// identically on both engines and adversarial runs keep
// engine-independent trace fingerprints.
//
// The interposition points are:
//
//  1. ObserveCoins — before each prover round, the adversary may filter
//     the coin transcript the prover sees (randomness-ignoring provers
//     blank it; the verifiers still check against their real coins).
//  2. Corrupt — after the prover produced its assignment and before the
//     engine freezes it, the adversary may mutate labels. The corrupted
//     assignment flows through the same freeze/accumulate path as an
//     honest one, so injected bits are metered by the proof-size
//     accounting and the freeze length check exactly like honest bits.
//  3. Decide — after the decision phase, the adversary may override
//     individual node verdicts (crash-faulty nodes that always accept).
//
// Implementations must be deterministic given their seed: BeginRun is
// called once at the start of every engine run (composite protocols
// forward the adversary to each sub-run, which begins a fresh run) and
// must reset all per-run state, including any internal rng. Decide must
// not consume randomness — it is keyed on per-run state chosen in
// BeginRun — because verdict overrides are applied in vertex order
// outside the adversary's round-by-round rng stream.
type Adversary interface {
	// Name identifies the strategy in trace events and metrics.
	Name() string
	// BeginRun resets per-run state for an execution on g.
	BeginRun(g *graph.Graph)
	// ObserveCoins returns the coin transcript shown to the prover for
	// round (the engine keeps the real transcript for the verifiers) and
	// the number of coin strings it altered.
	ObserveCoins(round int, coins [][]bitio.String) ([][]bitio.String, int)
	// Corrupt returns the assignment the engine should deliver in the
	// given prover round and the number of labels it mutated. a is the
	// engine's copy of the prover's assignment, free to mutate in
	// place; the label strings it holds are immutable. prev holds
	// the already-delivered (post-corruption) assignments of earlier
	// rounds. The returned assignment must keep one node label per
	// vertex and either no edge labels or one per edge; violations
	// surface as engine errors, not silent drops.
	Corrupt(round int, a *Assignment, prev []*Assignment) (*Assignment, int)
	// Decide returns node's final verdict given its honest decision.
	Decide(node int, honest bool) bool
}

// WithAdversary interposes a at the engine boundary of the execution
// (and, via Child, of every sub-execution nested under it). Passing nil
// detaches any inherited adversary.
func WithAdversary(a Adversary) RunOption {
	return func(c *RunConfig) { c.Adversary = a }
}

// corruptRound applies the adversary's per-round interposition shared by
// both engines: hand a copy of the assignment to Corrupt, re-normalize a
// nil result, and report the mutation count. Corrupt gets a copy because
// strategies mutate labels in place while a prover may hand the same
// assignment to every run (a prepared, coin-free first round).
func corruptRound(adv Adversary, g *graph.Graph, round int, a *Assignment, prev []*Assignment) (*Assignment, int) {
	a, mut := adv.Corrupt(round, &Assignment{Node: slices.Clone(a.Node), Edge: slices.Clone(a.Edge)}, prev)
	if a == nil {
		a = NewAssignment(g)
	}
	return a, mut
}

// overrideDecisions applies the adversary's verdict overrides in vertex
// order and returns the number of flipped verdicts. Both engines call it
// serially after their decision phase, so adversaries need no internal
// locking.
func overrideDecisions(adv Adversary, outputs []bool) int {
	flips := 0
	for v := range outputs {
		if d := adv.Decide(v, outputs[v]); d != outputs[v] {
			outputs[v] = d
			flips++
		}
	}
	return flips
}
