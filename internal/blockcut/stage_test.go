package blockcut_test

import (
	"math/rand"
	"testing"

	"repro/internal/blockcut"
	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/outerplanar"
	"repro/internal/treewidth2"
)

// shape is one block shape of the structural stage, with the composed
// protocol that runs it.
type shape struct {
	name string
	plan func(*graph.Graph) (*blockcut.Plan, error)
	run  func(*graph.Graph, *blockcut.Plan, *rand.Rand, ...dip.RunOption) (*dip.Outcome, error)
}

var (
	paths    = shape{"paths", outerplanar.HonestPlan, outerplanar.Run}
	dfsTrees = shape{"dfs", treewidth2.HonestPlan, treewidth2.Run}
)

// stageGraph is outerplanar, so also of treewidth 2. Its root block is
// a fan with center 0 over the path 1-2-3-4. A triangle and a bridge
// hang off 1, a triangle and a 4-cycle with a chord off 4, a bridge off
// 2, and a path of two bridges off 3, so every path vertex of the fan
// is a cut vertex and so is the leader 14 of the bridge {3, 14}.
func stageGraph() *graph.Graph {
	g := graph.New(16)
	for _, e := range [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {2, 3}, {3, 4},
		{1, 10}, {10, 11}, {11, 1}, {1, 12},
		{4, 5}, {5, 6}, {6, 4}, {4, 7}, {7, 8}, {8, 9}, {9, 4}, {7, 9},
		{2, 13}, {3, 14}, {14, 15},
	} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// homeChildren counts u's children in F that are not leaders.
func homeChildren(p *blockcut.Plan, u int) int {
	k := 0
	for v, pv := range p.ParentF {
		if pv == u && !p.IsLeader[v] {
			k++
		}
	}
	return k
}

// seesSep reports whether u is adjacent to its block's separating
// vertex, the closure outerplanar demands of a node ending its path.
func seesSep(g *graph.Graph, p *blockcut.Plan, u int) bool {
	return g.HasEdge(u, p.Blocks[p.Home[u]][0])
}

// find returns the first vertex satisfying ok.
func find(t *testing.T, g *graph.Graph, ok func(v int) bool) int {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if ok(v) {
			return v
		}
	}
	t.Fatal("no vertex fits the tamper")
	return -1
}

// TestStructuralChecks tampers an honest plan of each block shape so
// that one check of the structural stage fails and every other check
// still passes, and requires the structural stage, and only it, to
// reject. The tampered plans keep F a spanning tree, so the forest code
// and the spanning-tree test hold throughout, and keep every block a
// valid sub-instance, so the per-block sub-protocols accept. A leader's
// parent must be a cut vertex too, but no plan breaks that alone: the
// parent's own cut flag check fails first.
func TestStructuralChecks(t *testing.T) {
	both := []shape{paths, dfsTrees}
	cases := []struct {
		name   string
		shapes []shape
		tamper func(t *testing.T, g *graph.Graph, p *blockcut.Plan)
	}{
		{"honest", both, func(*testing.T, *graph.Graph, *blockcut.Plan) {}},
		{"cut flag without leader children", both, func(t *testing.T, g *graph.Graph, p *blockcut.Plan) {
			v := find(t, g, func(v int) bool { return !p.IsCut[v] && v != p.Root })
			p.IsCut[v] = true
		}},
		{"root does not anchor its block", both, func(t *testing.T, g *graph.Graph, p *blockcut.Plan) {
			p.Lead[p.RootBlock] = p.Blocks[p.RootBlock][1]
		}},
		{"leader's sep is not its parent", []shape{dfsTrees}, func(t *testing.T, g *graph.Graph, p *blockcut.Plan) {
			// A bridge whose leader is a cut vertex is listed from the
			// leader, so the leader's own string becomes the bridge's sep
			// string. On paths the leader, last on the bridge's path, would
			// also miss the closure.
			for c, block := range p.Blocks {
				if c != p.RootBlock && len(block) == 2 && p.IsCut[block[1]] {
					p.Blocks[c] = []int{block[1], block[0]}
					return
				}
			}
			t.Fatal("no bridge below a cut leader")
		}},
		{"leader does not anchor the lead string", both, func(t *testing.T, g *graph.Graph, p *blockcut.Plan) {
			// Another vertex of a non-root block anchors its lead string:
			// the block agrees on it, but its leader's own string differs.
			for c, block := range p.Blocks {
				if c != p.RootBlock && len(block) >= 3 {
					for _, v := range block[1:] {
						if v != p.Lead[c] {
							p.Lead[c] = v
							return
						}
					}
				}
			}
			t.Fatal("no block of three vertices")
		}},
		{"sep and lead do not propagate", both, func(t *testing.T, g *graph.Graph, p *blockcut.Plan) {
			// A leader whose parent keeps other leader children drops its
			// flag: it now claims its parent's block, but carries its own.
			v := find(t, g, func(v int) bool {
				u := p.ParentF[v]
				if v == p.Root || !p.IsLeader[v] || homeChildren(p, u) != 0 {
					return false
				}
				leaders := 0
				for w, pw := range p.ParentF {
					if pw == u && p.IsLeader[w] {
						leaders++
					}
				}
				return leaders >= 2
			})
			p.IsLeader[v] = false
		}},
		{"edge leaves a non-cut node's block", both, func(t *testing.T, g *graph.Graph, p *blockcut.Plan) {
			// A leaf x of F splits off with its parent q into a block of
			// its own, flagged consistently; x's other edges now leave it.
			x := find(t, g, func(x int) bool {
				q := p.ParentF[x]
				return x != p.Root && !p.IsCut[x] && !p.IsLeader[x] && g.Degree(x) >= 2 &&
					homeChildren(p, x) == 0 && q != p.Root && homeChildren(p, q) == 1 && seesSep(g, p, q)
			})
			q := p.ParentF[x]
			p.Blocks = append(p.Blocks, []int{q, x})
			p.Lead = append(p.Lead, x)
			p.Home[x] = len(p.Blocks) - 1
			p.IsLeader[x] = true
			p.IsCut[q] = true
		}},
		{"two home children", []shape{paths}, func(t *testing.T, g *graph.Graph, p *blockcut.Plan) {
			// A root-block vertex off the root's path moves up to hang
			// from the root directly.
			w := find(t, g, func(w int) bool {
				q := p.ParentF[w]
				return w != p.Root && p.Home[w] == p.RootBlock && q != p.Root &&
					g.HasEdge(w, p.Root) && g.HasEdge(q, p.Root)
			})
			p.ParentF[w] = p.Root
		}},
		{"path end misses the separating vertex", []shape{paths}, func(t *testing.T, g *graph.Graph, p *blockcut.Plan) {
			// Swap the last two nodes of a path along a chord: the new
			// last node is not adjacent to the block's first node.
			for _, path := range p.Blocks {
				k := len(path)
				if k < 4 {
					continue
				}
				x1, x2, x3 := path[k-3], path[k-2], path[k-1]
				if g.HasEdge(x1, x3) && !g.HasEdge(x2, path[0]) {
					p.ParentF[x3] = x1
					p.ParentF[x2] = x3
					return
				}
			}
			t.Fatal("no path to reorder")
		}},
	}
	g := stageGraph()
	for _, tc := range cases {
		for _, sh := range tc.shapes {
			t.Run(tc.name+"/"+sh.name, func(t *testing.T) {
				plan, err := sh.plan(g)
				if err != nil {
					t.Fatal(err)
				}
				tc.tamper(t, g, plan)
				res, err := sh.run(g, plan, rand.New(rand.NewSource(1)))
				if err != nil {
					t.Fatal(err)
				}
				if tc.name == "honest" {
					if !res.Accepted {
						t.Fatalf("honest plan rejected: %v", res.Rejections)
					}
					return
				}
				if !res.Rejected("structural") || len(res.Rejections) != 1 {
					t.Fatalf("want a structural rejection alone, got %v", res.Rejections)
				}
			})
		}
	}
}
