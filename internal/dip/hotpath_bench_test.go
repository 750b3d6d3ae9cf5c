package dip

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// gridGraph returns the rows x cols grid graph: the canonical planar
// benchmark instance (max degree 4, degeneracy 2, rows*cols nodes).
func gridGraph(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// hotPathFixture builds the 10k-node planar benchmark workload: a
// 100x100 grid with node and edge labels in every prover round, run on
// the standard P=3/V=2 schedule with a verifier that touches every
// neighbor label (so view assembly cannot be optimized away) but does
// no protocol-level decoding — the measurement isolates the engine.
type hotPathVerifier struct{}

func (hotPathVerifier) Coins(round int, view *View, rng *rand.Rand) bitio.String {
	return bitio.FromUint(uint64(rng.Intn(16)), 4)
}

func (hotPathVerifier) Decide(view *View) bool {
	sum := 0
	for r := range view.rounds {
		sum += view.Own(r).Len()
		for p := 0; p < view.Deg(); p++ {
			sum += view.Nbr(p, r).Len() + view.EdgeLab(p, r).Len()
		}
	}
	return sum > 0
}

func hotPathFixture(rows, cols, proverRounds int) (*Instance, *fixedProver) {
	g := gridGraph(rows, cols)
	assigns := make([]*Assignment, proverRounds)
	for pr := range assigns {
		a := NewEdgeAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = bitio.FromUint(uint64(v%256), 8)
		}
		for id, e := range g.Edges() {
			a.Edge[id] = bitio.FromUint(uint64((e.U+e.V)%16), 4)
		}
		assigns[pr] = a
	}
	return NewInstance(g), &fixedProver{assigns: assigns}
}

// BenchmarkRunnerHotPath measures the orchestrated engine's steady-state
// verifier loop (view assembly, label lookup, scheduling) on a 10k-node
// planar instance. Allocations per op are the headline number: the view
// pool and dense edge-indexed labels are supposed to keep the per-node
// per-round cost at zero.
func BenchmarkRunnerHotPath(b *testing.B) {
	inst, prover := hotPathFixture(100, 100, 3)
	r := NewRunner(inst)
	v := hotPathVerifier{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(prover, v, 3, 2, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkChannelHotPath is the same workload on the message-passing
// engine (per-node goroutines, per-round deliveries).
func BenchmarkChannelHotPath(b *testing.B) {
	inst, prover := hotPathFixture(100, 100, 3)
	cr := newChannelRunner(inst)
	v := hotPathVerifier{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cr.Run(prover, v, 3, 2, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkRepeatHotPath measures Protocol.Repeat on the same fixture:
// the driver is supposed to freeze the instance once and reuse per-node
// rngs across runs.
func BenchmarkRepeatHotPath(b *testing.B) {
	inst, prover := hotPathFixture(50, 50, 3)
	proto := &Protocol{
		Name:           "hotpath",
		ProverRounds:   3,
		VerifierRounds: 2,
		NewProver:      func() Prover { return prover },
		Verifier:       hotPathVerifier{},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := proto.Repeat(inst, 2, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if tr.Accepts != tr.Runs {
			b.Fatal("rejected")
		}
	}
}
