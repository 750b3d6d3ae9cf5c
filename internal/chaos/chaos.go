// Package chaos is the adversarial fault-injection library: a registry
// of deterministic, seedable dip.Adversary strategies that corrupt
// protocol executions at the engine boundary. Each strategy models one
// failure class from the DIP literature — bit corruption on labels,
// replayed rounds, withheld labels, truncated interactions, provers
// that ignore the verifiers' randomness, targeted corruption of the
// most accountable node, and crash-faulty nodes that always accept —
// and every injected bit still flows through the engines'
// freeze/accumulate path, so adversarial runs are metered by the same
// proof-size accounting as honest ones.
//
// Determinism contract: a strategy is a pure function of (seed,
// instance, interaction). BeginRun reseeds the strategy's rng, both
// engines interpose at identical points in identical order, and
// strategies consume randomness only from per-round hooks (never from
// Decide), so the same (seed, strategy, instance, verifier seed)
// produces byte-identical trace fingerprints on the orchestrated and
// the channel engine.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/graph"
)

// Strategy names, in the order Names returns them.
const (
	// Honest is the identity adversary: no mutations. Soundness sweeps
	// use it to measure the bare protocol against honest-but-corrupted
	// executions (an honest prover strategy on a no-instance).
	Honest = "honest"
	// BitFlip flips one random bit in a handful of random node labels
	// every prover round.
	BitFlip = "bitflip"
	// Replay replaces each prover round's assignment (after the first)
	// with a replay of a random earlier round.
	Replay = "replay"
	// Withhold erases one victim node's label in every prover round.
	Withhold = "withhold"
	// Truncate delivers empty assignments from the second prover round
	// on, modeling a prover that stops cooperating mid-interaction.
	Truncate = "truncate"
	// IgnoreCoins blanks the coin transcript shown to the prover (the
	// verifiers keep their real coins), modeling a prover that ignores
	// the interaction's randomness.
	IgnoreCoins = "ignore-coins"
	// Heaviest flips the leading bit of the label of the node that is
	// accountable for the most edges under the Lemma 2.4 degeneracy
	// orientation — the node whose corruption perturbs the most charged
	// bits.
	Heaviest = "heaviest"
	// CrashAccept marks a random quarter of the nodes crash-faulty:
	// they output accept regardless of their verifier's verdict.
	CrashAccept = "crash-accept"
)

// Names returns the registered strategy names in a fixed order.
func Names() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

var builders = map[string]func(seed int64) dip.Adversary{
	Honest:      func(seed int64) dip.Adversary { return &honest{core: newCore(Honest, seed)} },
	BitFlip:     func(seed int64) dip.Adversary { return &bitflip{core: newCore(BitFlip, seed)} },
	Replay:      func(seed int64) dip.Adversary { return &replay{core: newCore(Replay, seed)} },
	Withhold:    func(seed int64) dip.Adversary { return &withhold{core: newCore(Withhold, seed)} },
	Truncate:    func(seed int64) dip.Adversary { return &truncate{core: newCore(Truncate, seed)} },
	IgnoreCoins: func(seed int64) dip.Adversary { return &ignoreCoins{core: newCore(IgnoreCoins, seed)} },
	Heaviest:    func(seed int64) dip.Adversary { return &heaviest{core: newCore(Heaviest, seed)} },
	CrashAccept: func(seed int64) dip.Adversary { return &crashAccept{core: newCore(CrashAccept, seed)} },
}

// New returns a fresh adversary implementing the named strategy,
// deterministic in seed. Unknown names are errors, not panics, so
// network-facing callers can reject bad strategy fields with a 4xx.
func New(name string, seed int64) (dip.Adversary, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown strategy %q (have %v)", name, Names())
	}
	return b(seed), nil
}

// core is the shared per-strategy state: identity, the seed, and the
// per-run rng plus instance handle that BeginRun resets. It also
// provides the no-op hooks strategies override selectively.
type core struct {
	name string
	seed int64
	rng  *rand.Rand
	g    *graph.Graph
}

func newCore(name string, seed int64) core { return core{name: name, seed: seed} }

func (c *core) Name() string { return c.name }

func (c *core) BeginRun(g *graph.Graph) {
	c.g = g
	c.rng = rand.New(rand.NewSource(c.seed))
}

func (c *core) ObserveCoins(round int, coins [][]bitio.String) ([][]bitio.String, int) {
	return coins, 0
}

func (c *core) Corrupt(round int, a *dip.Assignment, prev []*dip.Assignment) (*dip.Assignment, int) {
	return a, 0
}

func (c *core) Decide(node int, honest bool) bool { return honest }

// flipBit returns s with bit i inverted. bitio strings are immutable,
// so the flip rebuilds the string bit by bit.
func flipBit(s bitio.String, i int) bitio.String {
	var w bitio.Writer
	for j := 0; j < s.Len(); j++ {
		b := s.Bit(j)
		if j == i {
			b = !b
		}
		w.WriteBit(b)
	}
	return w.String()
}

// zeroString returns an all-zero string of the same length as s, so a
// blanked coin still decodes under fixed-width readers.
func zeroString(s bitio.String) bitio.String {
	var w bitio.Writer
	for j := 0; j < s.Len(); j++ {
		w.WriteBit(false)
	}
	return w.String()
}

// ---- strategies ------------------------------------------------------

type honest struct{ core }

type bitflip struct{ core }

func (s *bitflip) Corrupt(round int, a *dip.Assignment, prev []*dip.Assignment) (*dip.Assignment, int) {
	n := len(a.Node)
	if n == 0 {
		return a, 0
	}
	flips := n/8 + 1
	mut := 0
	for i := 0; i < flips; i++ {
		v := s.rng.Intn(n)
		if a.Node[v].Len() == 0 {
			continue
		}
		a.Node[v] = flipBit(a.Node[v], s.rng.Intn(a.Node[v].Len()))
		mut++
	}
	return a, mut
}

type replay struct{ core }

func (s *replay) Corrupt(round int, a *dip.Assignment, prev []*dip.Assignment) (*dip.Assignment, int) {
	if len(prev) == 0 {
		return a, 0
	}
	old := prev[s.rng.Intn(len(prev))]
	mut := 0
	for v := range a.Node {
		if v < len(old.Node) && !a.Node[v].Equal(old.Node[v]) {
			mut++
		}
	}
	return old, mut
}

type withhold struct {
	core
	victim int
}

func (s *withhold) BeginRun(g *graph.Graph) {
	s.core.BeginRun(g)
	s.victim = s.rng.Intn(g.N())
}

func (s *withhold) Corrupt(round int, a *dip.Assignment, prev []*dip.Assignment) (*dip.Assignment, int) {
	if s.victim >= len(a.Node) || a.Node[s.victim].Len() == 0 {
		return a, 0
	}
	a.Node[s.victim] = bitio.String{}
	return a, 1
}

type truncate struct{ core }

func (s *truncate) Corrupt(round int, a *dip.Assignment, prev []*dip.Assignment) (*dip.Assignment, int) {
	if round == 0 {
		return a, 0
	}
	mut := a.LabelledEdges()
	for _, l := range a.Node {
		if l.Len() > 0 {
			mut++
		}
	}
	return dip.NewAssignment(s.g), mut
}

type ignoreCoins struct{ core }

func (s *ignoreCoins) ObserveCoins(round int, coins [][]bitio.String) ([][]bitio.String, int) {
	if len(coins) == 0 {
		return coins, 0
	}
	mut := 0
	blanked := make([][]bitio.String, len(coins))
	for r := range coins {
		blanked[r] = make([]bitio.String, len(coins[r]))
		for v := range coins[r] {
			blanked[r][v] = zeroString(coins[r][v])
			if coins[r][v].Len() > 0 {
				mut++
			}
		}
	}
	return blanked, mut
}

type heaviest struct {
	core
	target int
}

func (s *heaviest) BeginRun(g *graph.Graph) {
	s.core.BeginRun(g)
	out, _ := graph.OrientByDegeneracy(g)
	s.target = 0
	for v := range out {
		if len(out[v]) > len(out[s.target]) {
			s.target = v
		}
	}
}

func (s *heaviest) Corrupt(round int, a *dip.Assignment, prev []*dip.Assignment) (*dip.Assignment, int) {
	if s.target >= len(a.Node) || a.Node[s.target].Len() == 0 {
		return a, 0
	}
	a.Node[s.target] = flipBit(a.Node[s.target], 0)
	return a, 1
}

type crashAccept struct {
	core
	faulty []bool
}

func (s *crashAccept) BeginRun(g *graph.Graph) {
	s.core.BeginRun(g)
	s.faulty = make([]bool, g.N())
	any := false
	for v := range s.faulty {
		if s.rng.Intn(4) == 0 {
			s.faulty[v] = true
			any = true
		}
	}
	if !any {
		s.faulty[s.rng.Intn(len(s.faulty))] = true
	}
}

func (s *crashAccept) Decide(node int, honest bool) bool {
	if node < len(s.faulty) && s.faulty[node] {
		return true
	}
	return honest
}
