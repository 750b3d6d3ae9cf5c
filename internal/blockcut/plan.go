// Package blockcut is the block–cut structural stage shared by the
// outerplanarity DIP (Theorem 1.3) and the treewidth-2 DIP (Theorem 1.7
// via Lemma 8.2).
//
// The prover roots the block–cut tree of the graph and spans every
// block with a tree hanging from the block's separating vertex; the
// union of these trees is a spanning forest F. The 3-round stage (P V P)
//
//   - commits F with the forest code, plus cut/leader flags (a leader is
//     the child of a separating vertex in the block below it);
//   - verifies that F is a spanning tree (Lemma 2.5, amplified);
//   - isolates the blocks with random strings: every node echoes its
//     own string and carries its block's sep and lead strings (those of
//     the separating vertex and of the leader), so a non-cut node must
//     not have an edge leaving its block.
//
// The protocols differ in the tree shape inside a block (a Hamiltonian
// path for outerplanarity, a DFS tree for treewidth 2), in the checks
// they layer on Verifier.Check, and in the sub-protocol they run inside
// every block.
package blockcut

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Plan is the structural stage's witness: the forest F, its flags, and
// the vertices that anchor each block's sep and lead strings.
type Plan struct {
	// Blocks[c] lists block c's vertices in the order its sub-protocol
	// numbers them. Blocks[c][0] is the block's separating vertex, whose
	// string is the block's sep string; for the root block it is Root.
	Blocks [][]int
	// Lead[c] is the vertex whose string is block c's lead string: the
	// block's leader, or Root for the root block.
	Lead []int
	// Home[v] is the block whose tree contains v below the block's
	// separating vertex; Root's home is the root block.
	Home []int
	// ParentF[v] is v's parent in F, or -1 for Root.
	ParentF []int
	// Root is the root of F, the first vertex of the root block.
	Root int
	// RootBlock indexes the root block in Blocks.
	RootBlock int
	// IsCut flags cut vertices, IsLeader the block leaders and Root.
	IsCut, IsLeader []bool
}

// SpanBlock spans one block for the honest prover. sub is the block's
// induced subgraph and sep the local index of its separating vertex. It
// returns the block's local vertices in sub-protocol order, sep first,
// and a spanning tree of sub rooted at sep as local parent pointers.
type SpanBlock func(sub *graph.Graph, sep int) (order, parent []int, err error)

// HonestPlan roots the block–cut tree of g at the block containing
// vertex 0 and spans every block with span. The children of a
// separating vertex in the block below it become leaders; the first of
// them anchors the block's lead string.
func HonestPlan(g *graph.Graph, span SpanBlock) (*Plan, error) {
	n := g.N()
	if n < 2 {
		return nil, errors.New("need n >= 2")
	}
	if !g.IsConnected() {
		return nil, errors.New("need a connected graph")
	}
	bct := graph.NewBlockCutTree(g, 0)
	dec := bct.Decomp
	nb := len(dec.Components)
	p := &Plan{
		Blocks:    make([][]int, nb),
		Lead:      make([]int, nb),
		Home:      make([]int, n),
		ParentF:   make([]int, n),
		RootBlock: bct.RootBlock,
		IsCut:     append([]bool(nil), dec.IsCut...),
		IsLeader:  make([]bool, n),
	}
	for v := range p.Home {
		p.Home[v] = -1
		p.ParentF[v] = -2
	}
	// Blocks root-first, so each separating vertex is placed by its
	// parent block before its child blocks hang off it.
	order := []int{bct.RootBlock}
	for i := 0; i < len(order); i++ {
		order = append(order, bct.ChildBlocks[order[i]]...)
	}
	// Blocks share at most one vertex, so each block's subgraph gets
	// exactly its own component's edges, in their order.
	var edges []graph.Edge
	for _, comp := range dec.Components {
		edges = append(edges, comp...)
	}
	subs := Induced(n, dec.Vertices, edges)
	for _, c := range order {
		verts := dec.Vertices[c]
		sep := bct.ParentCut[c]
		if c == bct.RootBlock {
			sep = verts[0]
			p.Root = sep
			p.Home[sep] = c
			p.ParentF[sep] = -1
			p.IsLeader[sep] = true
		}
		block, parent, err := span(subs[c], slices.Index(verts, sep))
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", c, err)
		}
		lead := -1
		for i, lv := range block {
			v := verts[lv]
			block[i] = v // from local to real vertices, in place
			if i == 0 {
				continue // sep, placed by its parent block
			}
			pv := verts[parent[lv]]
			p.Home[v] = c
			p.ParentF[v] = pv
			if pv == sep && c != bct.RootBlock {
				p.IsLeader[v] = true
				if lead == -1 {
					lead = v
				}
			}
		}
		if c == bct.RootBlock {
			lead = p.Root
		}
		p.Blocks[c] = block
		p.Lead[c] = lead
	}
	for v := 0; v < n; v++ {
		if p.Home[v] == -1 || p.ParentF[v] == -2 {
			return nil, fmt.Errorf("vertex %d not covered by the decomposition", v)
		}
	}
	return p, nil
}

// Induced returns the subgraph of edges on each block, in one pass over
// edges: vertex i of the c-th result is blocks[c][i], and every edge
// with both endpoints in blocks[c] is added to it in the order given. A
// vertex listed twice in a block keeps its last index, and block
// vertices outside [0, n) stay isolated. Edge endpoints lie in [0, n).
func Induced(n int, blocks [][]int, edges []graph.Edge) []*graph.Graph {
	// at[v] lists v's (block, index) slots, sorted by block.
	type slot struct{ block, index int }
	at := make([][]slot, n)
	subs := make([]*graph.Graph, len(blocks))
	for c, b := range blocks {
		subs[c] = graph.New(len(b))
		for i, v := range b {
			switch {
			case v < 0 || v >= n:
			case len(at[v]) > 0 && at[v][len(at[v])-1].block == c:
				at[v][len(at[v])-1].index = i // listed twice in c: the last index wins
			default:
				at[v] = append(at[v], slot{c, i})
			}
		}
	}
	for _, e := range edges {
		// Merge the endpoints' lists: every block they share gets e.
		su, sv := at[e.U], at[e.V]
		for len(su) > 0 && len(sv) > 0 {
			switch {
			case su[0].block < sv[0].block:
				su = su[1:]
			case su[0].block > sv[0].block:
				sv = sv[1:]
			default:
				subs[su[0].block].MustAddEdge(su[0].index, sv[0].index)
				su, sv = su[1:], sv[1:]
			}
		}
	}
	return subs
}
