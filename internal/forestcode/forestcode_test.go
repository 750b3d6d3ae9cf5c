package forestcode

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// decodeAll decodes the forest at every node and reconstructs parent
// pointers, failing the test on any decode error.
func decodeAll(t *testing.T, g *graph.Graph, labels []Label) []int {
	t.Helper()
	parent := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		nbrLabels := make([]Label, g.Degree(v))
		for p, u := range g.Neighbors(v) {
			nbrLabels[p] = labels[u]
		}
		d, err := Decode(labels[v], nbrLabels, nil)
		if err != nil {
			t.Fatalf("decode at %d: %v", v, err)
		}
		if d.ParentPort == -1 {
			parent[v] = -1
		} else {
			parent[v] = g.Neighbors(v)[d.ParentPort]
		}
	}
	return parent
}

func TestRoundTripBFSTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		inst := gen.Triangulation(rng, 4+rng.Intn(60))
		tree, err := graph.BFSTree(inst.G, 0)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := EncodeForest(inst.G, tree.Parent)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		got := decodeAll(t, inst.G, labels)
		for v := range got {
			if got[v] != tree.Parent[v] {
				t.Fatalf("trial %d: parent[%d] = %d, want %d", trial, v, got[v], tree.Parent[v])
			}
		}
	}
}

func TestRoundTripChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := gen.Triangulation(rng, 40)
	tree, _ := graph.BFSTree(inst.G, 0)
	labels, err := EncodeForest(inst.G, tree.Parent)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < inst.G.N(); v++ {
		nbrLabels := make([]Label, inst.G.Degree(v))
		for p, u := range inst.G.Neighbors(v) {
			nbrLabels[p] = labels[u]
		}
		d, err := Decode(labels[v], nbrLabels, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotChildren := map[int]bool{}
		for _, p := range d.ChildPorts {
			gotChildren[inst.G.Neighbors(v)[p]] = true
		}
		if len(gotChildren) != len(tree.Children[v]) {
			t.Fatalf("node %d: decoded %d children, want %d", v, len(gotChildren), len(tree.Children[v]))
		}
		for _, c := range tree.Children[v] {
			if !gotChildren[c] {
				t.Fatalf("node %d: missing child %d", v, c)
			}
		}
	}
}

func TestRoundTripHamiltonianPath(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		inst := gen.PathOuterplanar(rng, 3+rng.Intn(80), 0.5)
		at := make([]int, inst.G.N())
		for v, p := range inst.Pos {
			at[p] = v
		}
		// Path rooted at the leftmost node.
		parent := make([]int, inst.G.N())
		parent[at[0]] = -1
		for p := 1; p < len(at); p++ {
			parent[at[p]] = at[p-1]
		}
		labels, err := EncodeForest(inst.G, parent)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := decodeAll(t, inst.G, labels)
		for v := range got {
			if got[v] != parent[v] {
				t.Fatalf("trial %d: parent[%d] = %d, want %d", trial, v, got[v], parent[v])
			}
		}
	}
}

func TestRoundTripForestMultipleRoots(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := gen.Triangulation(rng, 50)
	tree, _ := graph.BFSTree(inst.G, 0)
	// Cut the tree into a forest: detach a few subtrees.
	parent := append([]int(nil), tree.Parent...)
	cuts := 0
	for v := 0; v < len(parent) && cuts < 4; v++ {
		if parent[v] != -1 && tree.Depth[v]%2 == 0 {
			parent[v] = -1
			cuts++
		}
	}
	labels, err := EncodeForest(inst.G, parent)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, inst.G, labels)
	for v := range got {
		if got[v] != parent[v] {
			t.Fatalf("parent[%d] = %d, want %d", v, got[v], parent[v])
		}
	}
}

func TestEncodeRejectsNonEdgesAndCycles(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	if _, err := EncodeForest(g, []int{2, -1, 1}); err == nil {
		t.Fatal("non-edge parent accepted")
	}
	if _, err := EncodeForest(g, []int{1, 0, 1}); err == nil {
		t.Fatal("parent cycle accepted")
	}
}

func TestLabelEncodeDecode(t *testing.T) {
	for c1 := uint8(0); c1 < 8; c1++ {
		l := Label{C1: c1, C2: 7 - c1, Parity: c1 % 2}
		s := l.Encode()
		if s.Len() != LabelBits {
			t.Fatalf("encoded %d bits", s.Len())
		}
		got, err := DecodeLabel(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != l {
			t.Fatalf("round trip %+v -> %+v", l, got)
		}
	}
}

func TestDecodeRejectsAmbiguity(t *testing.T) {
	// Two identical parent candidates.
	own := Label{C1: 1, C2: 2, Parity: 1}
	nbr := []Label{
		{C1: 1, C2: 5, Parity: 0},
		{C1: 1, C2: 6, Parity: 0},
	}
	if _, err := Decode(own, nbr, nil); err == nil {
		t.Fatal("ambiguous parents accepted")
	}
}
