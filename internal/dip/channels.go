package dip

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bitio"
	"repro/internal/obs"
)

// WithChannelEngine runs Protocol.RunOnce and Repeat, and through
// RunConfig.Child every sub-execution nested under them, on the channel
// engine instead of a Runner: the oracle whose results and trace
// fingerprints Runner's must match. Only tests set it. The engine is
// reachable only through this option (see RunConfig.oracle), so a
// binary that never calls it does not link the channel engine.
func WithChannelEngine() RunOption {
	return func(c *RunConfig) {
		c.oracle = func(inst *Instance) engine { return newChannelRunner(inst) }
	}
}

// channelRunner is the test oracle for Runner: the prover and every
// verifier node run as long-lived goroutines for the whole interaction,
// exchanging messages over channels — the literal shape of the model,
// with no central orchestration of the verifier side. Tests require its
// results and trace fingerprints to be identical to Runner's (the
// cross-engine matrix in locality_test.go, and the cross-engine tests
// of protocol, chaos and pathouter). Like Runner, it reuses per-node
// rngs and the frozen instance across runs, so it is NOT safe for
// concurrent Run calls.
type channelRunner struct {
	inst *Instance
	fi   *frozenInstance
	// portOff is the CSR offset table over ports: node x's ports occupy
	// [portOff[x], portOff[x+1]) of a flattened all-ports array of
	// length portOff[n] == 2*M, out of which the per-round delivery
	// buffers are sliced (see slot).
	portOff []int
	// states[x] is node x's splitmix64 coin stream (reseeded per run);
	// nodeRngs[x] wraps &states[x] and is created once on the first run.
	// One rand.Rand per node is inherent to this engine's shape — each
	// node goroutine draws concurrently, so they cannot share a cursor —
	// but the streams themselves are the same ones Runner derives, which
	// is what keeps the two engines' fingerprints identical.
	states   []nodeSource
	nodeRngs []*rand.Rand
	// deliver/coinsUp/decide are the per-node channels, created on the
	// first run and reused: they are always drained by the end of a run
	// (success or error path), so reuse is safe for sequential runs.
	deliver []chan frozenAssignment
	coinsUp []chan bitio.String
	decide  []chan bool
	// views[x] is node x's long-lived view over the rounds delivered to
	// it (see ensureRunState); labels[x] gathers one node's labels for a
	// row decode. Both are sized once per prover-round count viewsP, so
	// the per-node goroutines allocate nothing after the first run.
	views  []View
	labels [][]bitio.String
	viewsP int
}

// newChannelRunner prepares a channel-based execution environment. The
// dense frozen form is memoized on the instance, shared with any other
// runner on it.
func newChannelRunner(inst *Instance) *channelRunner {
	fi := inst.freeze()
	portOff := make([]int, fi.n+1)
	for x, ports := range fi.ports {
		portOff[x+1] = portOff[x] + len(ports)
	}
	return &channelRunner{inst: inst, fi: fi, portOff: portOff}
}

// slot returns the first delivery slot of node x. One round's delivery
// buffer holds, for every node, its own label and then its neighbours'
// labels in port order: node x's message is slots [slot(x), slot(x+1)).
// Edge labels travel in a second buffer in plain port order, [portOff[x],
// portOff[x+1]).
func (cr *channelRunner) slot(x int) int { return cr.portOff[x] + x }

// ensureRunState builds the channels (first run) and the per-node views
// (first run, or a change of the prover-round count). Each run leaves
// the views empty behind it (releaseViews).
func (cr *channelRunner) ensureRunState(proverRounds int) {
	fi := cr.fi
	n := fi.n
	if cr.deliver == nil {
		cr.deliver = make([]chan frozenAssignment, n)
		cr.coinsUp = make([]chan bitio.String, n)
		cr.decide = make([]chan bool, n)
		for i := 0; i < n; i++ {
			cr.deliver[i] = make(chan frozenAssignment, 1)
			cr.coinsUp[i] = make(chan bitio.String, 1)
			cr.decide[i] = make(chan bool, 1)
		}
	}
	if cr.views != nil && cr.viewsP == proverRounds {
		return
	}
	cr.views = make([]View, n)
	cr.labels = make([][]bitio.String, n)
	cr.viewsP = proverRounds
	// nbrSlot[portOff[x]+p] is the slot of port p's neighbour label in
	// node x's message; portSlot is the identity over the edge buffer.
	nbrSlot := make([]int, cr.portOff[n])
	portSlot := make([]int, cr.portOff[n])
	rounds := make([]frozenAssignment, n*proverRounds)
	labels := make([]bitio.String, n*proverRounds)
	for x := 0; x < n; x++ {
		lo, hi := cr.portOff[x], cr.portOff[x+1]
		for i := lo; i < hi; i++ {
			nbrSlot[i] = cr.slot(x) + 1 + (i - lo)
			portSlot[i] = i
		}
		cr.views[x] = View{
			rounds: rounds[x*proverRounds : x*proverRounds : (x+1)*proverRounds],
			self:   cr.slot(x),
			nbr:    nbrSlot[lo:hi:hi],
			edge:   portSlot[lo:hi:hi],
			v:      x,
			ports:  fi.ports[x],
			eid:    fi.portEID[x],
			edgeIn: fi.edgeIn,
			input:  fi.nodeIn[x],
		}
		cr.labels[x] = labels[x*proverRounds : (x+1)*proverRounds : (x+1)*proverRounds]
	}
}

// Run executes the interaction with one goroutine per node plus a prover
// goroutine. Semantics and statistics match Runner.Run, and so does the
// deterministic part of the trace-event sequence: both engines emit the
// same kinds, rounds, histograms, and verdicts for the same seed, so a
// CollectTracer fingerprint is engine-independent.
func (cr *channelRunner) Run(p Prover, v Verifier, proverRounds, verifierRounds int, rng *rand.Rand, opts ...RunOption) (*Result, error) {
	if proverRounds < 1 || verifierRounds < 0 || proverRounds < verifierRounds {
		return nil, fmt.Errorf("dip: invalid schedule P=%d V=%d", proverRounds, verifierRounds)
	}
	cfg := NewRunConfig(opts...)
	traced := cfg.Tracer != nil
	adv := cfg.Adversary
	hook := cfg.hook
	g := cr.inst.G
	n := g.N()
	fi := cr.fi
	if err := fi.check(); err != nil {
		return nil, err
	}
	if adv != nil {
		adv.BeginRun(g)
	}

	// Channels and per-node views persist across runs on the same
	// channelRunner (built on the first run, emptied after each).
	cr.ensureRunState(proverRounds)
	deliver, coinsUp, decide := cr.deliver, cr.coinsUp, cr.decide

	// reseedNodeStates reuses the states slice once sized, so the
	// nodeRngs wrappers keep pointing at live state across runs.
	cr.states = reseedNodeStates(cr.states, n, rng)
	if cr.nodeRngs == nil {
		cr.nodeRngs = make([]*rand.Rand, n)
		for x := range cr.nodeRngs {
			cr.nodeRngs[x] = rand.New(&cr.states[x])
		}
	}

	// Rows, when the verifier decodes them, live in one table per run
	// indexed by delivery slot: each node decodes its own row and its
	// neighbours' rows from the labels it received, into its own slots.
	var rows rowTable
	if rv, ok := v.(RowVerifier); ok {
		rows = rv.Rows().newTable(cr.slot(n))
	}
	// board[r][x] is the coin string node x published in verifier round
	// r. Each node writes only its own entry, before sending it up.
	board := make([][]bitio.String, verifierRounds)
	boardFlat := make([]bitio.String, verifierRounds*n)
	for r := range board {
		board[r] = boardFlat[r*n : (r+1)*n : (r+1)*n]
	}
	defer cr.releaseViews()

	// Node goroutines: receive labels each prover round, emit coins each
	// verifier round, decide at the end. Each node's view reads only the
	// rounds delivered to it so far, through its own slots of the
	// round's delivery buffers.
	var wg sync.WaitGroup
	for x := 0; x < n; x++ {
		wg.Add(1)
		go func(x int) {
			defer wg.Done()
			view := &cr.views[x]
			view.hook = hook
			for pr := 0; pr < proverRounds; pr++ {
				view.rounds = append(view.rounds, <-deliver[x])
				if pr < verifierRounds {
					view.coins, view.round = board[:pr], pr
					c := v.Coins(pr, view, cr.nodeRngs[x])
					board[pr][x] = c
					coinsUp[x] <- c
				}
			}
			view.coins, view.round, view.rows = board, -1, rows
			if rows != nil {
				decodeRow(rows, view.rounds, view.self, cr.labels[x], hook)
				for _, slot := range view.nbr {
					decodeRow(rows, view.rounds, slot, cr.labels[x], hook)
				}
			}
			decide[x] <- v.Decide(view)
		}(x)
	}

	// Prover goroutine logic runs inline: compute each round, deliver to
	// every node, then gather coins.
	var st Stats
	st.Rounds = proverRounds + verifierRounds
	var assignments []*Assignment
	var coins [][]bitio.String
	var runStart, phaseStart time.Time
	if traced {
		runStart = time.Now()
		cfg.emitRunStart(obs.EngineChannels, n, st.Rounds)
	}
	runErr := func() error {
		for pr := 0; pr < proverRounds; pr++ {
			if err := cfg.ctxErr(); err != nil {
				return err
			}
			if traced {
				cfg.emitRoundStart(obs.ProverRoundStart, obs.EngineChannels, pr)
				phaseStart = time.Now()
			}
			proverCoins, coinMut := coins, 0
			if adv != nil {
				proverCoins, coinMut = adv.ObserveCoins(pr, coins)
			}
			a, err := p.Round(pr, proverCoins)
			if err != nil {
				return fmt.Errorf("dip: prover round %d: %w", pr, err)
			}
			if a == nil {
				a = NewAssignment(g)
			}
			labelMut := 0
			if adv != nil {
				a, labelMut = corruptRound(adv, g, pr, a, assignments)
			}
			if len(a.Node) != n {
				return fmt.Errorf("dip: prover round %d assigned %d node labels, want %d", pr, len(a.Node), n)
			}
			fa, err := fi.freeze(a)
			if err != nil {
				return fmt.Errorf("dip: prover round %d: %w", pr, err)
			}
			assignments = append(assignments, a)
			fi.accumulate(fa, &st)
			if traced && adv != nil {
				cfg.emitAdversaryAct(obs.EngineChannels, pr, adv.Name(), coinMut+labelMut)
			}
			// Two flat delivery buffers per round, node labels by slot and
			// edge labels by port (see slot): two allocations for all n
			// messages. Each node's range is written before its send and
			// read only by that node, so nodes read them race-free.
			nodeBuf := make([]bitio.String, cr.slot(n))
			edgeBuf := make([]bitio.String, cr.portOff[n])
			for x := 0; x < n; x++ {
				s, lo := cr.slot(x), cr.portOff[x]
				nodeBuf[s] = fa.node[x]
				eids := fi.portEID[x]
				for pi, u := range fi.ports[x] {
					nodeBuf[s+1+pi] = fa.node[u]
					edgeBuf[lo+pi] = fa.edge[eids[pi]]
				}
				deliver[x] <- frozenAssignment{node: nodeBuf, edge: edgeBuf}
			}
			if traced {
				cfg.emitProverRoundEnd(obs.EngineChannels, pr, st.LabelBits[pr], phaseStart)
			}
			if pr < verifierRounds {
				if traced {
					cfg.emitRoundStart(obs.VerifierRoundStart, obs.EngineChannels, pr)
					phaseStart = time.Now()
				}
				round := board[pr]
				for x := 0; x < n; x++ {
					if c := <-coinsUp[x]; c.Len() > st.MaxCoinBits {
						st.MaxCoinBits = c.Len()
					}
				}
				coins = append(coins, round)
				if traced {
					lens := make([]int, n)
					for i, c := range round {
						lens[i] = c.Len()
					}
					cfg.emitVerifierRoundEnd(obs.EngineChannels, pr, lens, phaseStart, n, nil)
				}
			}
		}
		return nil
	}()
	if runErr != nil {
		// Unblock node goroutines before returning: closing delivery
		// channels is unsafe mid-protocol, and abandoning the goroutines
		// is not acceptable, so deliver empty labels for the remaining
		// rounds.
		empty := frozenAssignment{node: make([]bitio.String, cr.slot(n)), edge: make([]bitio.String, cr.portOff[n])}
		for pr := len(assignments); pr < proverRounds; pr++ {
			for x := 0; x < n; x++ {
				deliver[x] <- empty
			}
			if pr < verifierRounds {
				for x := 0; x < n; x++ {
					<-coinsUp[x]
				}
			}
		}
		for x := 0; x < n; x++ {
			<-decide[x]
		}
		wg.Wait()
		if traced {
			cfg.emitRunEnd(obs.EngineChannels, &st, false, runErr.Error(), runStart, 0, nil)
		}
		return nil, runErr
	}

	outputs := make([]bool, n)
	for x := 0; x < n; x++ {
		outputs[x] = <-decide[x]
	}
	wg.Wait()
	if adv != nil {
		flips := overrideDecisions(adv, outputs)
		if traced {
			cfg.emitAdversaryAct(obs.EngineChannels, st.Rounds, adv.Name(), flips)
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
		cfg.emitDecisions(obs.EngineChannels, outputs)
		cfg.emitRunEnd(obs.EngineChannels, &st, accepted, "", runStart, n, nil)
	}
	return &Result{
		Accepted:    accepted,
		NodeOutputs: outputs,
		Stats:       st,
		Transcript:  Transcript{Assignments: assignments, Coins: coins},
	}, nil
}

// releaseViews drops the run's delivery buffers, coins and rows from
// the per-node views, so a channelRunner kept for later runs retains
// none of them.
func (cr *channelRunner) releaseViews() {
	for x := range cr.views {
		view := &cr.views[x]
		clear(view.rounds)
		view.rounds = view.rounds[:0]
		view.coins, view.rows, view.hook = nil, nil, nil
	}
}
