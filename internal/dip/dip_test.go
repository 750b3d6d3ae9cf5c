package dip

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

type fixedProver struct {
	assigns []*Assignment
	fail    bool
}

func (fp *fixedProver) Round(round int, coins [][]bitio.String) (*Assignment, error) {
	if fp.fail {
		return nil, errors.New("prover gave up")
	}
	if round < len(fp.assigns) {
		return fp.assigns[round], nil
	}
	return nil, nil
}

type echoVerifier struct {
	decide func(view *View) bool
}

func (ev echoVerifier) Coins(round int, view *View, rng *rand.Rand) bitio.String {
	return bitio.FromUint(uint64(rng.Intn(16)), 4)
}

func (ev echoVerifier) Decide(view *View) bool { return ev.decide(view) }

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

func TestRunScheduleValidation(t *testing.T) {
	g := pathGraph(3)
	inst := NewInstance(g)
	r := NewRunner(inst)
	v := echoVerifier{decide: func(*View) bool { return true }}
	if _, err := r.Run(&fixedProver{}, v, 0, 0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero prover rounds accepted")
	}
	if _, err := r.Run(&fixedProver{}, v, 1, 2, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("more verifier than prover rounds accepted")
	}
}

func TestRunDeliversLabelsAndCoins(t *testing.T) {
	g := pathGraph(4)
	inst := NewInstance(g)
	a0 := NewEdgeAssignment(g)
	for v := 0; v < 4; v++ {
		a0.Node[v] = bitio.FromUint(uint64(v), 3)
	}
	a0.Edge[g.EdgeID(1, 2)] = bitio.FromUint(5, 3)
	a1 := NewAssignment(g)
	for v := 0; v < 4; v++ {
		a1.Node[v] = bitio.FromUint(uint64(10+v), 5)
	}
	decide := func(view *View) bool {
		own0, _ := view.Own(0).Reader().ReadUint(3)
		if own0 != uint64(view.v) {
			return false
		}
		own1, _ := view.Own(1).Reader().ReadUint(5)
		if own1 != uint64(10+view.v) {
			return false
		}
		// Neighbor labels must match the neighbor ids.
		for p := 0; p < view.Deg(); p++ {
			nb, _ := view.Nbr(p, 0).Reader().ReadUint(3)
			if nb != uint64(view.ports[p]) {
				return false
			}
		}
		// The edge label on (1,2) is visible from both sides.
		if view.v == 1 || view.v == 2 {
			found := false
			for p := 0; p < view.Deg(); p++ {
				if view.EdgeLab(p, 0).Len() == 3 {
					el, _ := view.EdgeLab(p, 0).Reader().ReadUint(3)
					if el == 5 {
						found = true
					}
				}
			}
			if !found {
				return false
			}
		}
		// Coins: one verifier round happened.
		if len(view.coins) != 1 || view.Coin(0).Len() != 4 {
			return false
		}
		return true
	}
	r := NewRunner(inst)
	res, err := r.Run(&fixedProver{assigns: []*Assignment{a0, a1}}, echoVerifier{decide: decide}, 2, 1, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("outputs: %v", res.NodeOutputs)
	}
	if res.Stats.Rounds != 3 {
		t.Fatalf("rounds %d", res.Stats.Rounds)
	}
	if len(res.Transcript.Assignments) != 2 || len(res.Transcript.Coins) != 1 {
		t.Fatal("transcript incomplete")
	}
}

func TestStatsChargeEdgeLabelsToAccountableEndpoint(t *testing.T) {
	g := pathGraph(3)
	inst := NewInstance(g)
	a := NewEdgeAssignment(g)
	a.Edge[g.EdgeID(0, 1)] = bitio.FromUint(1, 7)
	a.Edge[g.EdgeID(1, 2)] = bitio.FromUint(1, 7)
	r := NewRunner(inst)
	res, err := r.Run(&fixedProver{assigns: []*Assignment{a}},
		echoVerifier{decide: func(*View) bool { return true }}, 1, 0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// Each edge is charged exactly once; with degeneracy 1 the middle
	// node can be accountable for at most one of them.
	total := 0
	for _, row := range res.Stats.LabelBits {
		for _, bits := range row {
			total += bits
		}
	}
	if total != 14 {
		t.Fatalf("total charged bits %d, want 14", total)
	}
	if res.Stats.MaxLabelBits != 7 && res.Stats.MaxLabelBits != 14 {
		t.Fatalf("max label bits %d", res.Stats.MaxLabelBits)
	}
}

func TestRejectionAggregation(t *testing.T) {
	g := pathGraph(3)
	inst := NewInstance(g)
	r := NewRunner(inst)
	res, err := r.Run(&fixedProver{assigns: []*Assignment{NewAssignment(g)}},
		echoVerifier{decide: func(view *View) bool { return view.v != 1 }}, 1, 0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("one rejecting node must reject globally")
	}
	if res.NodeOutputs[0] != true || res.NodeOutputs[1] != false {
		t.Fatalf("outputs %v", res.NodeOutputs)
	}
}

func TestProverErrorPropagates(t *testing.T) {
	g := pathGraph(2)
	inst := NewInstance(g)
	r := NewRunner(inst)
	_, err := r.Run(&fixedProver{fail: true},
		echoVerifier{decide: func(*View) bool { return true }}, 1, 0, rand.New(rand.NewSource(5)))
	if err == nil {
		t.Fatal("prover error swallowed")
	}
}

func TestProtocolRepeatDeterministicWithSeed(t *testing.T) {
	g := pathGraph(5)
	inst := NewInstance(g)
	proto := &Protocol{
		Name:           "echo",
		ProverRounds:   1,
		VerifierRounds: 0,
		NewProver:      func() Prover { return &fixedProver{assigns: []*Assignment{NewAssignment(g)}} },
		Verifier:       echoVerifier{decide: func(*View) bool { return true }},
	}
	tr, err := proto.Repeat(inst, 10, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.AcceptRate() != 1.0 {
		t.Fatalf("accept rate %f", tr.AcceptRate())
	}
	if tr.Rounds != 1 {
		t.Fatalf("rounds %d", tr.Rounds)
	}
}

func TestChannelRunnerMatchesRunner(t *testing.T) {
	g := pathGraph(6)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(2, 5)
	inst := NewInstance(g)
	a0 := NewEdgeAssignment(g)
	for v := 0; v < g.N(); v++ {
		a0.Node[v] = bitio.FromUint(uint64(v), 4)
	}
	a0.Edge[g.EdgeID(0, 3)] = bitio.FromUint(9, 4)
	a1 := NewAssignment(g)
	for v := 0; v < g.N(); v++ {
		a1.Node[v] = bitio.FromUint(uint64(v*3%16), 4)
	}
	prover := func() Prover { return &fixedProver{assigns: []*Assignment{a0, a1}} }
	verifier := echoVerifier{decide: func(view *View) bool {
		// Accept iff round-0 own label equals V and a coin was seen.
		own, _ := view.Own(0).Reader().ReadUint(4)
		return own == uint64(view.v) && len(view.coins) == 1
	}}

	r1, err := NewRunner(inst).Run(prover(), verifier, 2, 1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := newChannelRunner(inst).Run(prover(), verifier, 2, 1, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Accepted != r2.Accepted {
		t.Fatalf("verdicts differ: %v vs %v", r1.Accepted, r2.Accepted)
	}
	if r1.Stats.MaxLabelBits != r2.Stats.MaxLabelBits || r1.Stats.TotalLabelBits != r2.Stats.TotalLabelBits {
		t.Fatalf("stats differ: %+v vs %+v", r1.Stats, r2.Stats)
	}
	for v := range r1.NodeOutputs {
		if r1.NodeOutputs[v] != r2.NodeOutputs[v] {
			t.Fatalf("node %d outputs differ", v)
		}
	}
}

func TestChannelRunnerProverError(t *testing.T) {
	g := pathGraph(3)
	inst := NewInstance(g)
	_, err := newChannelRunner(inst).Run(&fixedProver{fail: true},
		echoVerifier{decide: func(*View) bool { return true }}, 2, 1, rand.New(rand.NewSource(8)))
	if err == nil {
		t.Fatal("prover error swallowed")
	}
}
