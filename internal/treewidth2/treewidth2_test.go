package treewidth2

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestHonestPlanStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(60)
		gi := gen.Treewidth2(rng, n)
		plan, err := HonestPlan(gi.G)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		tree, err := graph.NewTreeFromParents(plan.ParentF, plan.Root)
		if err != nil {
			t.Fatal(err)
		}
		if !tree.IsSpanningTreeOf(gi.G) {
			t.Fatalf("trial %d: F not a spanning tree", trial)
		}
	}
}

func TestCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(60)
		gi := gen.Treewidth2(rng, n)
		for rep := 0; rep < 2; rep++ {
			res, err := Run(gi.G, nil, rng)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("trial %d rep %d (n=%d): rejected (structural=%v blocks=%d)",
					trial, rep, n, res.Rejected("structural"), res.RejectionCount("block"))
			}
			if res.Rounds != 5 {
				t.Fatalf("rounds %d", res.Rounds)
			}
		}
	}
}

func TestCompletenessPureSP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gi := gen.SeriesParallel(rng, 40)
	res, err := Run(gi.G, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("SP graph rejected (structural=%v blocks=%d)", res.Rejected("structural"), res.RejectionCount("block"))
	}
}

func TestSoundnessK4Block(t *testing.T) {
	// A K4 subdivision glued into an otherwise treewidth-2 graph: the
	// honest decomposition exists but the K4 block's series-parallel
	// sub-protocol must reject.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 6; trial++ {
		base := gen.Treewidth2(rng, 20)
		k4 := gen.K4Subdivision(rng, 16)
		// Glue: identify k4's vertex 0 with base's vertex 0.
		n := base.G.N() + k4.N() - 1
		g := graph.New(n)
		for _, e := range base.G.Edges() {
			g.MustAddEdge(e.U, e.V)
		}
		off := base.G.N() - 1
		mapV := func(v int) int {
			if v == 0 {
				return 0
			}
			return v + off
		}
		for _, e := range k4.Edges() {
			g.MustAddEdge(mapV(e.U), mapV(e.V))
		}
		res, err := Run(g, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatalf("trial %d: K4 block accepted", trial)
		}
		if res.RejectionCount("block") == 0 && !res.Rejected("structural") {
			t.Fatalf("trial %d: rejected for no recorded reason", trial)
		}
	}
}

func TestProofSizeDoublyLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sizes []int
	ns := []int{128, 4096, 32768}
	for _, n := range ns {
		gi := gen.Treewidth2(rng, n)
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

// TestBlockMapLocality checks every block's simulation map on the
// protocol's generator family: each block vertex is held, and only by
// its own node or a neighbor of it in g.
func TestBlockMapLocality(t *testing.T) {
	for _, n := range []int{24, 256} {
		g, err := gen.FamilySpec{Family: "treewidth2", N: n, ChordProb: -1}.Build(rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := HonestPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		for c, verts := range plan.Blocks {
			if err := blockMap(verts, plan.Lead[c]).Local(g, verts); err != nil {
				t.Fatalf("n=%d block %d: %v", n, c, err)
			}
		}
	}
}
