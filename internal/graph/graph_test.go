package graph

import (
	"math/rand"
	"testing"
)

func mustEdges(t *testing.T, g *Graph, edges [][2]int) {
	t.Helper()
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%v): %v", e, err)
		}
	}
}

func TestBasicGraph(t *testing.T) {
	g := New(4)
	mustEdges(t, g, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Degree(0) != 2 || g.MaxDegree() != 2 {
		t.Fatal("degree wrong")
	}
	if err := g.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := g.AddEdge(0, 9); err == nil {
		t.Fatal("out of range accepted")
	}
}

func TestPortEdgeIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := New(40)
	for i := 0; i < 120; i++ {
		g.AddEdge(rng.Intn(40), rng.Intn(40)) // dups/self-loops rejected
	}
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		eids := g.PortEdgeIDs(v)
		if len(eids) != len(nbrs) {
			t.Fatalf("v=%d: %d port edge ids for %d neighbors", v, len(eids), len(nbrs))
		}
		for p, u := range nbrs {
			if want := g.EdgeID(v, u); eids[p] != want {
				t.Fatalf("PortEdgeIDs(%d)[%d] = %d, EdgeID(%d,%d) = %d", v, p, eids[p], v, u, want)
			}
		}
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	mustEdges(t, g, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components", len(comps))
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
	g2 := New(1)
	if !g2.IsConnected() {
		t.Fatal("singleton should be connected")
	}
}

func TestContract(t *testing.T) {
	g := New(4)
	mustEdges(t, g, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	h, k := g.Contract([]int{0, 0, 1, 1})
	if k != 2 || h.M() != 1 || !h.HasEdge(0, 1) {
		t.Fatalf("contract: k=%d m=%d", k, h.M())
	}
}

func TestBFSTree(t *testing.T) {
	g := New(5)
	mustEdges(t, g, [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}})
	tr, err := BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsSpanningTreeOf(g) {
		t.Fatal("BFS tree not a spanning tree")
	}
	if tr.Depth[4] != 2 {
		t.Fatalf("depth[4]=%d", tr.Depth[4])
	}
	// Disconnected should error.
	g2 := New(3)
	g2.MustAddEdge(0, 1)
	if _, err := BFSTree(g2, 0); err == nil {
		t.Fatal("disconnected BFSTree should error")
	}
}

func TestNewTreeFromParentsDetectsCycle(t *testing.T) {
	if _, err := NewTreeFromParents([]int{1, 2, 0}, 0); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestIsSpanningTreeOfRejectsForest(t *testing.T) {
	g := New(4)
	mustEdges(t, g, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	// Two roots: not a spanning tree.
	tr, err := NewTreeFromParents([]int{-1, 0, -1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.IsSpanningTreeOf(g) {
		t.Fatal("forest accepted as spanning tree")
	}
}

func TestEulerTour(t *testing.T) {
	//    0
	//   / \
	//  1   2
	//  |
	//  3
	tr, err := NewTreeFromParents([]int{-1, 0, 0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tour := tr.EulerTour()
	want := []int{0, 1, 3, 1, 0, 2, 0}
	if len(tour) != len(want) {
		t.Fatalf("tour %v", tour)
	}
	for i := range want {
		if tour[i] != want[i] {
			t.Fatalf("tour %v, want %v", tour, want)
		}
	}
}

func TestPostOrder(t *testing.T) {
	tr, _ := NewTreeFromParents([]int{-1, 0, 0, 1}, 0)
	po := tr.PostOrder()
	// Children before parents.
	seen := map[int]bool{}
	for _, v := range po {
		for _, c := range tr.Children[v] {
			if !seen[c] {
				t.Fatalf("post-order %v visits %d before child %d", po, v, c)
			}
		}
		seen[v] = true
	}
	if len(po) != 4 {
		t.Fatalf("post-order %v", po)
	}
}

func TestBiconnectedSimple(t *testing.T) {
	// Two triangles sharing vertex 2: 0-1-2 and 2-3-4.
	g := New(5)
	mustEdges(t, g, [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	d := Biconnected(g)
	if len(d.Components) != 2 {
		t.Fatalf("got %d components, want 2", len(d.Components))
	}
	if !d.IsCut[2] {
		t.Fatal("vertex 2 should be a cut vertex")
	}
	for v := 0; v < 5; v++ {
		if v != 2 && d.IsCut[v] {
			t.Fatalf("vertex %d wrongly marked cut", v)
		}
	}
}

func TestBiconnectedBridge(t *testing.T) {
	// Path 0-1-2: two bridge components.
	g := New(3)
	mustEdges(t, g, [][2]int{{0, 1}, {1, 2}})
	d := Biconnected(g)
	if len(d.Components) != 2 {
		t.Fatalf("got %d components", len(d.Components))
	}
	if !d.IsCut[1] || d.IsCut[0] || d.IsCut[2] {
		t.Fatal("cut vertices wrong")
	}
}

func TestBiconnectedWholeCycle(t *testing.T) {
	g := New(6)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(i, (i+1)%6)
	}
	d := Biconnected(g)
	if len(d.Components) != 1 {
		t.Fatalf("cycle should be one component, got %d", len(d.Components))
	}
	for v := 0; v < 6; v++ {
		if d.IsCut[v] {
			t.Fatalf("cycle has no cut vertices, got %d", v)
		}
	}
}

func TestBiconnectedRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(8)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					g.MustAddEdge(u, v)
				}
			}
		}
		if !g.IsConnected() {
			continue
		}
		d := Biconnected(g)
		for v := 0; v < n; v++ {
			if d.IsCut[v] != bruteForceCut(g, v) {
				t.Fatalf("trial %d: cut status of %d disagrees with brute force", trial, v)
			}
		}
		// Every edge is in exactly one component.
		counts := make([]int, g.M())
		for _, comp := range d.Components {
			for _, e := range comp {
				counts[g.EdgeID(e.U, e.V)]++
			}
		}
		for id, c := range counts {
			if c != 1 {
				t.Fatalf("trial %d: edge %d in %d components", trial, id, c)
			}
		}
	}
}

// bruteForceCut checks whether removing v disconnects g.
func bruteForceCut(g *Graph, v int) bool {
	n := g.N()
	if n <= 2 {
		return false
	}
	seen := make([]bool, n)
	seen[v] = true
	start := -1
	for u := 0; u < n; u++ {
		if u != v {
			start = u
			break
		}
	}
	queue := []int{start}
	seen[start] = true
	count := 1
	for i := 0; i < len(queue); i++ {
		for _, u := range g.Neighbors(queue[i]) {
			if !seen[u] {
				seen[u] = true
				count++
				queue = append(queue, u)
			}
		}
	}
	return count != n-1
}

func TestBlockCutTree(t *testing.T) {
	// Chain of three triangles sharing cut vertices 2 and 4.
	g := New(7)
	mustEdges(t, g, [][2]int{
		{0, 1}, {1, 2}, {0, 2},
		{2, 3}, {3, 4}, {2, 4},
		{4, 5}, {5, 6}, {4, 6},
	})
	bct := NewBlockCutTree(g, 0)
	if len(bct.Decomp.Components) != 3 {
		t.Fatalf("want 3 blocks, got %d", len(bct.Decomp.Components))
	}
	if bct.BlockDepth[bct.RootBlock] != 0 {
		t.Fatal("root depth")
	}
	depths := map[int]int{}
	for c := range bct.Decomp.Components {
		depths[bct.BlockDepth[c]]++
	}
	if depths[0] != 1 || depths[1] != 1 || depths[2] != 1 {
		t.Fatalf("block depths %v", depths)
	}
	// The middle block's separating vertex must be a cut vertex.
	for c := range bct.Decomp.Components {
		if c == bct.RootBlock {
			if bct.ParentCut[c] != -1 {
				t.Fatal("root should have no parent cut")
			}
			continue
		}
		if !bct.Decomp.IsCut[bct.ParentCut[c]] {
			t.Fatalf("parent cut %d is not a cut vertex", bct.ParentCut[c])
		}
	}
}

func TestDegeneracyOrder(t *testing.T) {
	// K4 has degeneracy 3.
	g := New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.MustAddEdge(u, v)
		}
	}
	_, d := DegeneracyOrder(g)
	if d != 3 {
		t.Fatalf("K4 degeneracy %d", d)
	}
	// A tree has degeneracy 1.
	tr := New(6)
	mustEdges(t, tr, [][2]int{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}})
	_, d = DegeneracyOrder(tr)
	if d != 1 {
		t.Fatalf("tree degeneracy %d", d)
	}
}

func TestOrientByDegeneracyBoundsOutdegree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := New(30)
	for u := 0; u < 30; u++ {
		for v := u + 1; v < 30; v++ {
			if rng.Float64() < 0.2 {
				g.MustAddEdge(u, v)
			}
		}
	}
	out, d := OrientByDegeneracy(g)
	total := 0
	for v := range out {
		if len(out[v]) > d {
			t.Fatalf("vertex %d outdegree %d > degeneracy %d", v, len(out[v]), d)
		}
		total += len(out[v])
	}
	if total != g.M() {
		t.Fatalf("oriented %d of %d edges", total, g.M())
	}
}

func TestGreedyColoringProper(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(20)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(u, v)
				}
			}
		}
		colors, k := GreedyColoring(g)
		for _, e := range g.Edges() {
			if colors[e.U] == colors[e.V] {
				t.Fatalf("improper coloring on edge %v", e)
			}
		}
		_, d := DegeneracyOrder(g)
		if k > d+1 {
			t.Fatalf("used %d colors, degeneracy+1 = %d", k, d+1)
		}
	}
}
