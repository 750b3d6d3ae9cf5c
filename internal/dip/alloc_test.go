package dip

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// quietVerifier exercises the full view surface without allocating:
// coins are the zero-value (empty) bit string and the decision only
// reads label lengths. Whatever AllocsPerRun measures with it is the
// engine's own overhead, not the protocol's.
type quietVerifier struct{}

func (quietVerifier) Coins(round int, view *View, rng *rand.Rand) bitio.String {
	return bitio.String{}
}

func (quietVerifier) Decide(view *View) bool {
	sum := 0
	for r := range view.rounds {
		sum += view.Own(r).Len()
		for p := 0; p < view.Deg(); p++ {
			sum += view.Nbr(p, r).Len() + view.EdgeLab(p, r).Len()
		}
	}
	return sum >= 0
}

// TestRunnerSteadyStateAllocs is the allocation regression gate for the
// orchestrated engine: after the first run has grown the per-worker
// view scratch and the per-node rngs, a whole run (3 prover rounds, 2
// verifier rounds, plus decide) on a 256-node planar instance must
// allocate O(rounds) — view assembly itself allocates nothing per node.
// (AllocsPerRun pins GOMAXPROCS to 1, so this measures the inline batch
// path; the pooled path differs only by the per-run pool setup.)
func TestRunnerSteadyStateAllocs(t *testing.T) {
	inst, prover := hotPathFixture(16, 16, 3)
	n := inst.G.N()
	r := NewRunner(inst)
	v := quietVerifier{}
	seed := int64(0)
	run := func() {
		seed++
		res, err := r.Run(prover, v, 3, 2, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatal("rejected")
		}
	}
	run() // warm: grow scratch, create node rngs
	allocs := testing.AllocsPerRun(10, run)
	rounds := 5.0
	if perNodeRound := allocs / (float64(n) * rounds); perNodeRound > 0.2 {
		t.Errorf("runner steady state: %.0f allocs/run = %.3f per node-round, want ~0 (<= 0.2)",
			allocs, perNodeRound)
	}
}

// TestChannelSteadyStateAllocs gates the message-passing engine the
// same way. Its per-run cost is inherently O(n) — node goroutines,
// channels, and long-lived views are rebuilt each run — so the gate is
// on the marginal cost of extra rounds: growing the schedule from
// P=2/V=1 to P=12/V=11 must add only O(1) allocations per round
// (delivery buffers, metering), nothing per node.
func TestChannelSteadyStateAllocs(t *testing.T) {
	inst, prover := hotPathFixture(16, 16, 12)
	n := inst.G.N()
	measure := func(proverRounds, verifierRounds int) float64 {
		cr := newChannelRunner(inst)
		seed := int64(0)
		run := func() {
			seed++
			res, err := cr.Run(prover, quietVerifier{}, proverRounds, verifierRounds, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatal("rejected")
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	short := measure(2, 1)
	long := measure(12, 11)
	extraRounds := float64((12 + 11) - (2 + 1))
	perRound := (long - short) / extraRounds
	if perRound > 0.1*float64(n) {
		t.Errorf("channel engine marginal cost: %.1f allocs per extra round on n=%d, want O(1) (< %.0f)",
			perRound, n, 0.1*float64(n))
	}
}

// TestChannelCertifyAllocs gates the channel engine's whole-run cost on
// the fixture of benchkit's scaling table and its
// TestScalingCertifyAllocs: a 10^4-node grid, node labels only, P=3/V=2.
// One goroutine per node makes the cost inherently O(n), so the gate is
// a per-node budget that still fails if per-node label or rng
// allocations creep back in (the old bitio.FromUint alone cost 4
// allocs/node here).
func TestChannelCertifyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement at n=10k")
	}
	g := gridGraph(100, 100)
	n := g.N()
	var labels [256]bitio.String
	for i := range labels {
		labels[i] = bitio.FromUint(uint64(i), 8)
	}
	assigns := make([]*Assignment, 3)
	for pr := range assigns {
		node := make([]bitio.String, n)
		for v := range node {
			node[v] = labels[v%256]
		}
		assigns[pr] = &Assignment{Node: node}
	}
	prover := &fixedProver{assigns: assigns}
	cr := newChannelRunner(NewInstance(g))
	run := func() {
		res, err := cr.Run(prover, hotPathVerifier{}, 3, 2, rand.New(rand.NewSource(7)))
		if err != nil || !res.Accepted {
			t.Fatalf("channels: accepted=%v err=%v", res != nil && res.Accepted, err)
		}
	}
	run() // warm the channels, views and per-node rngs
	if allocs := testing.AllocsPerRun(5, run); allocs > 2.5*float64(n) {
		t.Errorf("channel engine allocs/op = %.0f, want <= %.0f (~2.5/node; goroutine-per-node floor)", allocs, 2.5*float64(n))
	}
}
