package seriesparallel

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/planar"
	"repro/internal/sp"
)

func TestPlanFromGeneratedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		inst := gen.SeriesParallel(rng, 4+rng.Intn(50))
		plan, err := HonestPlan(inst.G)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, ni := range plan.NestingInstances() {
			if !planar.ProperlyNested(ni.G, ni.Pos) {
				t.Fatalf("trial %d: ear %d instance not nested", trial, ni.Ear)
			}
		}
	}
}

func TestHonestPlanRejectsK4(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := HonestPlan(gen.K4Subdivision(rng, 25)); err == nil {
		t.Fatal("K4 subdivision planned")
	}
}

func TestCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		inst := gen.SeriesParallel(rng, 6+rng.Intn(60))
		for rep := 0; rep < 3; rep++ {
			res, err := Run(inst.G, nil, rng)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("trial %d rep %d (n=%d): rejected (structural=%v nesting=%d)",
					trial, rep, inst.G.N(), res.Rejected("structural"), res.RejectionCount("nesting"))
			}
			if res.Rounds != 5 {
				t.Fatalf("rounds %d", res.Rounds)
			}
		}
	}
}

func TestCompletenessSmallShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Triangle.
	tri := graph.New(3)
	tri.MustAddEdge(0, 1)
	tri.MustAddEdge(1, 2)
	tri.MustAddEdge(0, 2)
	res, err := Run(tri, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("triangle rejected")
	}
	// Theta graph (three parallel 2-paths).
	theta := graph.New(5)
	theta.MustAddEdge(0, 2)
	theta.MustAddEdge(2, 1)
	theta.MustAddEdge(0, 3)
	theta.MustAddEdge(3, 1)
	theta.MustAddEdge(0, 4)
	theta.MustAddEdge(4, 1)
	res, err = Run(theta, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("theta rejected (structural=%v nesting=%d)", res.Rejected("structural"), res.RejectionCount("nesting"))
	}
	// Bare path.
	p := graph.New(6)
	for i := 0; i < 5; i++ {
		p.MustAddEdge(i, i+1)
	}
	res, err = Run(p, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("path rejected")
	}
}

func TestSoundnessK4SubdivisionWithForgedPlan(t *testing.T) {
	// A K4 subdivision has ear decompositions, but none of them nest:
	// forge the best non-nested decomposition (an open ear decomposition
	// ignoring condition 3) and watch the nesting stage reject it.
	rng := rand.New(rand.NewSource(5))
	rejected, total := 0, 0
	for trial := 0; trial < 10; trial++ {
		g := gen.K4Subdivision(rng, 20)
		plan := forgeK4Plan(t, g)
		if plan == nil {
			continue
		}
		total++
		res, err := Run(g, plan, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			rejected++
		}
	}
	if total == 0 {
		t.Skip("no forged plans constructed")
	}
	if rejected != total {
		t.Fatalf("forged K4 plans accepted in %d/%d runs", total-rejected, total)
	}
}

// forgeK4Plan builds an (invalid) nested-ear-style plan for a subdivided
// K4 with branch vertices 0..3: first ear 0..1 via the subdivided edge,
// then ears for the remaining five subdivided edges, hosts chosen as the
// earliest ear containing both endpoints.
func forgeK4Plan(t *testing.T, g *graph.Graph) *Plan {
	t.Helper()
	// Recover the six subdivided paths between branch vertices (degree 3).
	var branches []int
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 3 {
			branches = append(branches, v)
		}
	}
	if len(branches) != 4 {
		t.Fatalf("expected 4 branch vertices, got %d", len(branches))
	}
	isBranch := map[int]bool{}
	for _, b := range branches {
		isBranch[b] = true
	}
	var paths [][]int
	seen := map[graph.Edge]bool{}
	for _, b := range branches {
		for _, u := range g.Neighbors(b) {
			e := graph.Canon(b, u)
			if seen[e] {
				continue
			}
			path := []int{b}
			prev, cur := b, u
			for {
				seen[graph.Canon(prev, cur)] = true
				path = append(path, cur)
				if isBranch[cur] {
					break
				}
				next := -1
				for _, w := range g.Neighbors(cur) {
					if w != prev {
						next = w
					}
				}
				prev, cur = cur, next
			}
			paths = append(paths, path)
		}
	}
	if len(paths) != 6 {
		t.Fatalf("expected 6 subdivided edges, got %d", len(paths))
	}
	// Order: a Hamiltonian-ish chain first (0-1, 1-2, 2-3 joined), then
	// the rest as ears. Build ear 0 = path(0,1)+path(1,2)+path(2,3).
	find := func(a, b int) []int {
		for _, p := range paths {
			if (p[0] == a && p[len(p)-1] == b) || (p[0] == b && p[len(p)-1] == a) {
				q := append([]int(nil), p...)
				if q[0] != a {
					for i, j := 0, len(q)-1; i < j; i, j = i+1, j-1 {
						q[i], q[j] = q[j], q[i]
					}
				}
				return q
			}
		}
		return nil
	}
	b0, b1, b2, b3 := branches[0], branches[1], branches[2], branches[3]
	ear0 := append([]int(nil), find(b0, b1)...)
	ear0 = append(ear0, find(b1, b2)[1:]...)
	ear0 = append(ear0, find(b2, b3)[1:]...)
	d := &sp.EarDecomposition{
		Ears: [][]int{ear0, find(b0, b2), find(b1, b3), find(b0, b3)},
		Host: []int{-1, 0, 0, 0},
	}
	plan, err := PlanFromEars(g, d)
	if err != nil {
		t.Fatalf("forged plan: %v", err)
	}
	return plan
}

func TestProofSizeDoublyLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var sizes []int
	ns := []int{128, 4096, 32768}
	for _, n := range ns {
		inst := gen.SeriesParallel(rng, n)
		res, err := Run(inst.G, nil, rng)
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

// TestEarMapLocality checks every ear's simulation map on the
// protocol's generator family: each ear vertex is held, and only by its
// own node or a neighbor of it in g.
func TestEarMapLocality(t *testing.T) {
	for _, n := range []int{24, 256} {
		g, err := gen.FamilySpec{Family: "sp", N: n, ChordProb: -1}.Build(rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := HonestPlan(g)
		if err != nil {
			t.Fatal(err)
		}
		for nix, ni := range plan.NestingInstances() {
			if err := earMap(ni, plan).Local(g, ni.Orig); err != nil {
				t.Fatalf("n=%d ear instance %d: %v", n, nix, err)
			}
		}
	}
}
