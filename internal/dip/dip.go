// Package dip implements the distributed-interactive-proof runtime of
// Kol–Oshman–Saxena (PODC 2018), the model of the paper.
//
// The verifier is distributed: one process per node of the communication
// graph, executed here by Runner's persistent worker pool, which visits
// every node in turn each round. The prover is a single centralized
// entity. Rounds alternate prover->verifier (the prover assigns every
// node, and optionally every edge, a label) and verifier->prover (every
// node publishes a public-coin random string). After the last prover
// round each node decides locally from (1) its own coins, (2) its own
// labels, and (3) its neighbors' labels — nothing else. The instance is
// accepted iff every node accepts. A second, literal engine — one
// goroutine per node, messages over channels — is the oracle Runner's
// results and traces must match; only tests select it
// (WithChannelEngine).
//
// Proof size is the maximum number of label bits the prover sends to a
// single node in a single round; edge labels are charged to the endpoint
// accountable for the edge under a bounded-outdegree orientation, following
// the simulation of Lemma 2.4.
package dip

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Instance is a DIP input: the communication graph plus the local inputs
// of nodes and edges (e.g. path incidence, edge orientation, rotation
// values). Labels are NOT part of the instance; they come from the prover.
type Instance struct {
	G *graph.Graph
	// NodeInput[v] is the private local input of node v (may be nil).
	NodeInput []any
	// EdgeInput[id] is the input of edge id of G.Edges(), visible to
	// both endpoints (may be nil). The table is nil when no edge has an
	// input, and otherwise holds one entry per edge.
	EdgeInput []any

	// frozen memoizes the dense run-ready form (see freeze): populated
	// by the first runner built on the instance, shared by every later
	// one. Inputs must not be mutated after the first run.
	frozenMu sync.Mutex
	frozen   *frozenInstance
}

// NewInstance wraps g with empty inputs.
func NewInstance(g *graph.Graph) *Instance {
	return &Instance{G: g, NodeInput: make([]any, g.N())}
}

// Assignment is the label assignment of one prover round.
type Assignment struct {
	// Node[v] is the label given to node v (zero value = empty label).
	Node []bitio.String
	// Edge[id] is the label written on edge id of g.Edges(), visible to
	// both endpoints; an empty string is no label. The table is nil when
	// the round labels no edge, and otherwise holds one entry per edge.
	Edge []bitio.String
}

// NewAssignment returns an empty assignment for g that labels no edge.
func NewAssignment(g *graph.Graph) *Assignment {
	return &Assignment{Node: make([]bitio.String, g.N())}
}

// NewEdgeAssignment returns an empty assignment with room for a label
// on every edge of g, indexed by edge id.
func NewEdgeAssignment(g *graph.Graph) *Assignment {
	return &Assignment{
		Node: make([]bitio.String, g.N()),
		Edge: make([]bitio.String, g.M()),
	}
}

// LabelledEdges returns the number of edges a carries a label on.
func (a *Assignment) LabelledEdges() int {
	n := 0
	for _, l := range a.Edge {
		if l.Len() > 0 {
			n++
		}
	}
	return n
}

// Prover produces label assignments. A Prover may be honest or adversarial;
// the engine treats both identically. The engines read a returned
// assignment in place for the rest of the run, so a prover must not
// modify an assignment after returning it.
type Prover interface {
	// Round is called once per prover round (0-based). coins[r][v] holds
	// the public coins node v published in verifier round r, for all
	// verifier rounds that already happened. The prover sees everything.
	Round(round int, coins [][]bitio.String) (*Assignment, error)
}

// Verifier defines the distributed verifier: coin sampling and the final
// local decision.
type Verifier interface {
	// Coins returns the public coin string node v publishes in verifier
	// round r. The view holds the labels of prover rounds 0..r and the
	// node's coins of verifier rounds before r. The rng is private to
	// the node.
	Coins(round int, view *View, rng *rand.Rand) bitio.String
	// Decide is the local accept/reject of node v given its full view.
	Decide(view *View) bool
}

// Stats reports measured communication.
type Stats struct {
	// MaxLabelBits is the proof size: the largest per-node per-round label,
	// where edge labels count toward their accountable endpoint.
	MaxLabelBits int
	// TotalLabelBits sums all label bits over all rounds and nodes.
	TotalLabelBits int
	// MaxCoinBits is the largest per-node per-round coin string.
	MaxCoinBits int
	// Rounds is the number of interaction rounds executed.
	Rounds int
	// LabelBits[r][v] is the label size charged to node v in prover round
	// r (node label plus accountable edge labels). Composite protocols use
	// it to merge sub-executions under ownership accounting.
	LabelBits [][]int
}

// Result of a protocol execution.
type Result struct {
	Accepted bool
	// NodeOutputs[v] is the local output of node v.
	NodeOutputs []bool
	Stats       Stats
	// Transcript records the full interaction so composite protocols can
	// layer additional local checks over the same labels.
	Transcript Transcript
}

// Transcript is the recorded interaction of one execution.
type Transcript struct {
	// Assignments[r] is the prover's assignment in prover round r.
	Assignments []*Assignment
	// Coins[r][v] is node v's public coin string in verifier round r.
	Coins [][]bitio.String
}

// Runner executes a protocol on an instance. NewRunner freezes the
// instance into a dense edge-id-indexed form once; each Run freezes the
// prover's assignments the same way, keeps a persistent pool of workers
// alive across its rounds, and points one per-worker view at each node
// in turn — views read the frozen rounds in place, so the steady-state
// verifier loop copies no label and allocates nothing.
// Per-node rngs and the frozen instance persist across runs (Repeat
// exploits this), which makes a Runner NOT safe for concurrent Run
// calls; use one Runner per goroutine.
type Runner struct {
	inst *Instance
	fi   *frozenInstance
	// states[v] is node v's splitmix64 coin stream, allocated on the
	// first run and reseeded on later runs. Workers reach them through
	// their scratch's cursor rng, so per-node randomness costs no
	// per-node allocation and no shared state beyond the seeding pass.
	states []nodeSource
	// scratch[w] is worker w's reusable view and coin cursor.
	scratch []*viewScratch
}

// NewRunner prepares an execution environment for inst. The dense
// frozen form is memoized on the instance, so building several runners
// for the same instance densifies once, and runners on one instance in
// different goroutines share it read-only.
func NewRunner(inst *Instance) *Runner {
	return &Runner{inst: inst, fi: inst.freeze()}
}

// Run executes proverRounds prover rounds interleaved with verifierRounds
// verifier rounds, starting with the prover:
// P V P V P ... The total interaction round count is
// proverRounds + verifierRounds. It returns the per-node outputs and
// communication statistics. Options attach a tracer and an identity tag
// (with no tracer configured every event site reduces to one nil check)
// and may bound the run by a context (WithContext), checked between
// rounds so server-side deadlines abort in-flight interactions.
func (r *Runner) Run(p Prover, v Verifier, proverRounds, verifierRounds int, rng *rand.Rand, opts ...RunOption) (*Result, error) {
	if proverRounds < 1 || verifierRounds < 0 || proverRounds < verifierRounds {
		return nil, fmt.Errorf("dip: invalid schedule P=%d V=%d", proverRounds, verifierRounds)
	}
	cfg := NewRunConfig(opts...)
	traced := cfg.Tracer != nil
	adv := cfg.Adversary
	// The batch closures capture hook, not cfg, so cfg stays on the stack.
	hook := cfg.hook
	g := r.inst.G
	n := g.N()
	if err := r.fi.check(); err != nil {
		return nil, err
	}
	if adv != nil {
		adv.BeginRun(g)
	}

	assignments := make([]*Assignment, 0, proverRounds)
	frozen := make([]frozenAssignment, 0, proverRounds)
	coins := make([][]bitio.String, 0, verifierRounds)

	// Per-node private coin streams, seeded deterministically from the
	// master rng: allocated on the first run, reseeded on every later run.
	r.states = reseedNodeStates(r.states, n, rng)

	// The worker pool lives for the whole run: its workers park between
	// rounds instead of being respawned per parallel phase. Below two
	// workers the batches run inline on scratch 0.
	var pool *nodePool
	workers := poolSizeFor(n)
	if workers > 1 {
		pool = newNodePool(workers)
		defer pool.close()
	} else {
		workers = 1
	}
	for len(r.scratch) < workers {
		r.scratch = append(r.scratch, newViewScratch())
	}
	// The worker views point into this run's rounds and rows; drop them
	// with the run so a Runner kept for later runs retains neither.
	defer func() {
		for _, sc := range r.scratch {
			sc.view = View{}
		}
	}()

	var st Stats
	st.Rounds = proverRounds + verifierRounds

	var runStart, phaseStart time.Time
	if traced {
		runStart = time.Now()
		cfg.emitRunStart(obs.EngineRunner, n, st.Rounds)
	}

	for pr := 0; pr < proverRounds; pr++ {
		if err := cfg.ctxErr(); err != nil {
			if traced {
				cfg.emitRunEnd(obs.EngineRunner, &st, false, err.Error(), runStart, 0, nil)
			}
			return nil, err
		}
		if traced {
			cfg.emitRoundStart(obs.ProverRoundStart, obs.EngineRunner, pr)
			phaseStart = time.Now()
		}
		proverCoins, coinMut := coins, 0
		if adv != nil {
			proverCoins, coinMut = adv.ObserveCoins(pr, coins)
		}
		a, err := p.Round(pr, proverCoins)
		if err != nil {
			err = fmt.Errorf("dip: prover round %d: %w", pr, err)
			if traced {
				cfg.emitRunEnd(obs.EngineRunner, &st, false, err.Error(), runStart, 0, nil)
			}
			return nil, err
		}
		if a == nil {
			a = NewAssignment(g)
		}
		labelMut := 0
		if adv != nil {
			a, labelMut = corruptRound(adv, g, pr, a, assignments)
		}
		if len(a.Node) != n {
			err := fmt.Errorf("dip: prover round %d assigned %d node labels, want %d", pr, len(a.Node), n)
			if traced {
				cfg.emitRunEnd(obs.EngineRunner, &st, false, err.Error(), runStart, 0, nil)
			}
			return nil, err
		}
		fa, err := r.fi.freeze(a)
		if err != nil {
			err = fmt.Errorf("dip: prover round %d: %w", pr, err)
			if traced {
				cfg.emitRunEnd(obs.EngineRunner, &st, false, err.Error(), runStart, 0, nil)
			}
			return nil, err
		}
		assignments = append(assignments, a)
		frozen = append(frozen, fa)
		r.fi.accumulate(fa, &st)
		if traced && adv != nil {
			cfg.emitAdversaryAct(obs.EngineRunner, pr, adv.Name(), coinMut+labelMut)
		}
		if traced {
			cfg.emitProverRoundEnd(obs.EngineRunner, pr, st.LabelBits[pr], phaseStart)
		}

		if pr < verifierRounds {
			if traced {
				cfg.emitRoundStart(obs.VerifierRoundStart, obs.EngineRunner, pr)
				phaseStart = time.Now()
			}
			round := make([]bitio.String, n)
			workers, batchNS := r.parallelNodes(pool, func(w, lo, hi int) {
				sc := r.scratch[w]
				view := sc.begin(r.fi, frozen, coins, pr, nil, hook)
				for x := lo; x < hi; x++ {
					r.fi.at(view, x)
					sc.cur.s = &r.states[x]
					round[x] = v.Coins(pr, view, sc.rng)
				}
			}, traced)
			for _, c := range round {
				if c.Len() > st.MaxCoinBits {
					st.MaxCoinBits = c.Len()
				}
			}
			coins = append(coins, round)
			if traced {
				lens := make([]int, n)
				for i, c := range round {
					lens[i] = c.Len()
				}
				cfg.emitVerifierRoundEnd(obs.EngineRunner, pr, lens, phaseStart, workers, batchNS)
			}
		}
	}

	if err := cfg.ctxErr(); err != nil {
		if traced {
			cfg.emitRunEnd(obs.EngineRunner, &st, false, err.Error(), runStart, 0, nil)
		}
		return nil, err
	}
	// Row pass: a row verifier's rows are decoded once each, in one
	// batch, before any node decides.
	var rows rowTable
	if rv, ok := v.(RowVerifier); ok {
		rows = rv.Rows().newTable(n)
		r.parallelNodes(pool, func(w, lo, hi int) {
			sc := r.scratch[w]
			if len(sc.labels) < len(frozen) {
				sc.labels = make([]bitio.String, len(frozen))
			}
			for x := lo; x < hi; x++ {
				decodeRow(rows, frozen, x, sc.labels, hook)
			}
		}, false)
	}
	outputs := make([]bool, n)
	decideWorkers, decideNS := r.parallelNodes(pool, func(w, lo, hi int) {
		view := r.scratch[w].begin(r.fi, frozen, coins, -1, rows, hook)
		for x := lo; x < hi; x++ {
			r.fi.at(view, x)
			outputs[x] = v.Decide(view)
		}
	}, traced)
	if adv != nil {
		flips := overrideDecisions(adv, outputs)
		if traced {
			cfg.emitAdversaryAct(obs.EngineRunner, st.Rounds, adv.Name(), flips)
		}
	}
	accepted := true
	for _, o := range outputs {
		if !o {
			accepted = false
			break
		}
	}
	if traced {
		cfg.emitDecisions(obs.EngineRunner, outputs)
		cfg.emitRunEnd(obs.EngineRunner, &st, accepted, "", runStart, decideWorkers, decideNS)
	}
	return &Result{
		Accepted:    accepted,
		NodeOutputs: outputs,
		Stats:       st,
		Transcript:  Transcript{Assignments: assignments, Coins: coins},
	}, nil
}

// parallelNodes runs fn over [0, n) in disjoint [lo, hi) node ranges —
// chunked across the run's persistent pool when one is live, as one
// inline range on scratch 0 otherwise. It returns the worker count and,
// when timed, each worker's busy time (nil otherwise) for
// goroutine-batch trace events.
func (r *Runner) parallelNodes(pool *nodePool, fn func(worker, lo, hi int), timed bool) (int, []int64) {
	n := r.fi.n
	if n == 0 {
		return 0, nil
	}
	if pool == nil {
		var start time.Time
		if timed {
			start = time.Now()
		}
		fn(0, 0, n)
		if timed {
			return 1, []int64{time.Since(start).Nanoseconds()}
		}
		return 1, nil
	}
	return pool.run(fn, n, timed)
}
