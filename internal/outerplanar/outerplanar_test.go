package outerplanar

import (
	"math/rand"
	"testing"

	"repro/internal/blockcut"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/planar"
)

func TestHonestPlanOnGeneratedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(60)
		gi := gen.Outerplanar(rng, n, 0.4)
		plan, err := HonestPlan(gi.G)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Every component path must be properly nested.
		subs := blockcut.Induced(gi.G.N(), plan.Blocks, gi.G.Edges())
		for ci, path := range plan.Blocks {
			pos := make([]int, len(path))
			for i := range pos {
				pos[i] = i
			}
			if !planar.ProperlyNested(subs[ci], pos) {
				t.Fatalf("trial %d: component path not nested", trial)
			}
		}
		// ParentF must be a spanning tree.
		tree, err := graph.NewTreeFromParents(plan.ParentF, plan.Root)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.IsSpanningTreeOf(gi.G) {
			t.Fatalf("trial %d: F is not a spanning tree", trial)
		}
	}
}

func TestHonestPlanRejectsNonOuterplanar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k4 := gen.K4Subdivision(rng, 30)
	if _, err := HonestPlan(k4); err == nil {
		t.Fatal("K4 subdivision planned")
	}
}

func TestCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(80)
		gi := gen.Outerplanar(rng, n, 0.4)
		for rep := 0; rep < 3; rep++ {
			res, err := Run(gi.G, nil, rng)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("trial %d rep %d (n=%d): rejected (structural=%v, compRej=%d)",
					trial, rep, n, res.Rejected("structural"), res.RejectionCount("component"))
			}
			if res.Rounds != 5 {
				t.Fatalf("rounds %d", res.Rounds)
			}
		}
	}
}

func TestCompletenessBiconnected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gi := gen.BiconnectedOuterplanar(rng, 40, 0.5)
	res, err := Run(gi.G, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("biconnected outerplanar rejected")
	}
}

// crossingPlan builds an adversarial plan for a biconnected graph with a
// known Hamiltonian cycle but crossing chords: the prover commits the
// cycle-based path and hopes the nesting stage misses the crossing.
func TestSoundnessCrossingChords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected, total := 0, 0
	for trial := 0; trial < 15; trial++ {
		n := 16 + rng.Intn(40)
		gi := gen.BiconnectedOuterplanar(rng, n, 0.4)
		g := gi.G.Clone()
		// Add a chord crossing an existing one w.r.t. the cycle order.
		added := false
		for attempt := 0; attempt < 200 && !added; attempt++ {
			a := rng.Intn(n - 3)
			b := a + 2 + rng.Intn(n-a-3)
			x := a + 1 + rng.Intn(b-a-1)
			y := b + 1 + rng.Intn(n-b-1)
			if x == y || y >= n {
				continue
			}
			ea := graph.Canon(gi.Cycle[a], gi.Cycle[b])
			eb := graph.Canon(gi.Cycle[x], gi.Cycle[y])
			if g.HasEdge(ea.U, ea.V) || g.HasEdge(eb.U, eb.V) {
				continue
			}
			g.MustAddEdge(ea.U, ea.V)
			g.MustAddEdge(eb.U, eb.V)
			added = true
		}
		if !added {
			continue
		}
		if planar.IsOuterplanar(g) {
			continue // chords happened to nest after all
		}
		total++
		// Adversarial plan: single component, cycle-based path.
		plan := &blockcut.Plan{
			Blocks:    [][]int{gi.Cycle},
			Lead:      []int{gi.Cycle[0]},
			Home:      make([]int, n),
			ParentF:   make([]int, n),
			Root:      gi.Cycle[0],
			RootBlock: 0,
			IsCut:     make([]bool, n),
			IsLeader:  make([]bool, n),
		}
		plan.IsLeader[gi.Cycle[0]] = true
		plan.ParentF[gi.Cycle[0]] = -1
		for i := 1; i < n; i++ {
			plan.ParentF[gi.Cycle[i]] = gi.Cycle[i-1]
		}
		res, err := Run(g, plan, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			rejected++
		}
	}
	if total == 0 {
		t.Skip("no crossing instances constructed")
	}
	if rejected < total {
		t.Fatalf("crossing chords accepted in %d/%d runs", total-rejected, total)
	}
}

func TestProofSizeDoublyLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var sizes []int
	ns := []int{128, 4096, 32768}
	for _, n := range ns {
		gi := gen.Outerplanar(rng, n, 0.4)
		res, err := Run(gi.G, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("n=%d rejected", n)
		}
		sizes = append(sizes, res.ProofSizeBits)
	}
	if sizes[2] >= 2*sizes[0] {
		t.Fatalf("proof size growth too fast: %v", sizes)
	}
}

// TestComponentMapLocality checks every component's simulation map on
// the protocol's generator family: each sub-vertex is held, and only by
// its own node or a neighbor of it in g.
func TestComponentMapLocality(t *testing.T) {
	for _, n := range []int{24, 256} {
		g, err := gen.FamilySpec{Family: "outerplanar", N: n, ChordProb: -1}.Build(rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := HonestPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		subs := blockcut.Induced(g.N(), plan.Blocks, g.Edges())
		for ci, path := range plan.Blocks {
			if err := componentMap(subs[ci], path).Local(g, path); err != nil {
				t.Fatalf("n=%d component %d: %v", n, ci, err)
			}
		}
	}
}
