// Package forestcode implements Lemma 2.3 of the paper: a constant-size
// distributed encoding of a rooted spanning forest of a planar graph.
//
// The prover contracts, in two copies of the graph, the tree edges from
// odd-depth (resp. even-depth) nodes to their parents, properly colors
// both contractions (planar minors, so 5-degenerate: greedy uses at most
// 6 colors — the paper's 4-coloring replaced by a constructive constant),
// and gives every node the two colors of its supernodes plus its depth
// parity. Each node can then identify its parent and children among its
// neighbors from labels alone.
//
// The encoding only *communicates* a forest; it does not prove the forest
// is spanning — that is Lemma 2.5 (package spantree).
package forestcode

import (
	"errors"
	"fmt"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// colorBits is the width of each color field; greedy coloring of a planar
// minor needs at most 6 colors.
const colorBits = 3

// LabelBits is the encoded size of a forest-code label: two colors plus
// the parity bit.
const LabelBits = 2*colorBits + 1

// Label is the per-node forest-code label.
type Label struct {
	C1     uint8 // color of the node's supernode in G_odd
	C2     uint8 // color of the node's supernode in G_even
	Parity uint8 // depth mod 2
}

// Encode writes the label as a bit string.
func (l Label) Encode() bitio.String {
	var w bitio.Writer
	w.WriteUint(uint64(l.C1), colorBits)
	w.WriteUint(uint64(l.C2), colorBits)
	w.WriteUint(uint64(l.Parity), 1)
	return w.String()
}

// DecodeLabel parses a forest-code label.
func DecodeLabel(s bitio.String) (Label, error) { return ReadLabel(s.Reader()) }

// ReadLabel reads a forest-code label in place from r, for labels that
// embed one.
func ReadLabel(r *bitio.Reader) (Label, error) {
	c1, err := r.ReadUint(colorBits)
	if err != nil {
		return Label{}, fmt.Errorf("forestcode: %w", err)
	}
	c2, err := r.ReadUint(colorBits)
	if err != nil {
		return Label{}, fmt.Errorf("forestcode: %w", err)
	}
	p, err := r.ReadUint(1)
	if err != nil {
		return Label{}, fmt.Errorf("forestcode: %w", err)
	}
	return Label{C1: uint8(c1), C2: uint8(c2), Parity: uint8(p)}, nil
}

// EncodeForest computes the labels for a rooted forest of g given by
// parent pointers (parent[v] = -1 for roots; every non-root's parent must
// be a g-neighbor). g must be sparse enough for the greedy colorings to
// fit in the color fields (guaranteed for planar graphs and their
// minors).
func EncodeForest(g *graph.Graph, parent []int) ([]Label, error) {
	n := g.N()
	if len(parent) != n {
		return nil, fmt.Errorf("forestcode: parent array length %d, want %d", len(parent), n)
	}
	tree, err := graph.NewTreeFromParents(parent, firstRoot(parent))
	if err != nil {
		return nil, fmt.Errorf("forestcode: %w", err)
	}
	for v := 0; v < n; v++ {
		if p := parent[v]; p != -1 {
			if !g.HasEdge(v, p) {
				return nil, fmt.Errorf("forestcode: parent edge (%d,%d) not in graph", v, p)
			}
			if tree.Depth[v]%2 == 1 && tree.Depth[p]%2 == 1 {
				return nil, errors.New("forestcode: inconsistent depths")
			}
		}
	}

	// Supernode of v in G_odd: odd-depth nodes merge into their parent;
	// the resulting centers are the even-depth nodes.
	// Supernode in G_even: even-depth non-roots merge into their parent;
	// centers are odd-depth nodes and even-depth roots.
	superOdd := make([]int, n)
	superEven := make([]int, n)
	for v := 0; v < n; v++ {
		if tree.Depth[v]%2 == 1 {
			superOdd[v] = parent[v]
			superEven[v] = v
		} else {
			superOdd[v] = v
			if parent[v] == -1 {
				superEven[v] = v
			} else {
				superEven[v] = parent[v]
			}
		}
	}
	c1, err := contractAndColor(g, superOdd)
	if err != nil {
		return nil, err
	}
	c2, err := contractAndColor(g, superEven)
	if err != nil {
		return nil, err
	}
	labels := make([]Label, n)
	for v := 0; v < n; v++ {
		labels[v] = Label{
			C1:     uint8(c1[v]),
			C2:     uint8(c2[v]),
			Parity: uint8(tree.Depth[v] % 2),
		}
	}
	return labels, nil
}

func firstRoot(parent []int) int {
	for v, p := range parent {
		if p == -1 {
			return v
		}
	}
	return 0
}

// contractAndColor contracts g by the supernode map and returns the color
// of each original vertex's supernode.
func contractAndColor(g *graph.Graph, super []int) ([]int, error) {
	n := g.N()
	// Compact supernode ids.
	compact := make(map[int]int)
	part := make([]int, n)
	for v := 0; v < n; v++ {
		s := super[v]
		id, ok := compact[s]
		if !ok {
			id = len(compact)
			compact[s] = id
		}
		part[v] = id
	}
	h, _ := g.Contract(part)
	colors, k := graph.GreedyColoring(h)
	if k > 1<<colorBits {
		return nil, fmt.Errorf("forestcode: contraction needed %d colors (graph too dense for the planar encoding)", k)
	}
	out := make([]int, n)
	for v := 0; v < n; v++ {
		out[v] = colors[part[v]]
	}
	return out, nil
}

// Decoded is the local forest structure a node recovers from labels.
type Decoded struct {
	// ParentPort is the port (index into the node's neighbor list) of the
	// parent, or -1 if the node decodes as a root.
	ParentPort int
	// ChildPorts lists ports of decoded children.
	ChildPorts []int
}

// Decode recovers the local forest structure of a node from its own label
// and its neighbors' labels (indexed by port). The child ports are
// appended to children, so a caller that decodes node after node can
// pass the same slice's [:0] each time; nil allocates. It returns an
// error when the labels are inconsistent (more than one parent
// candidate), which a verifier must treat as rejection.
func Decode(own Label, nbr []Label, children []int) (Decoded, error) {
	d := Decoded{ParentPort: -1, ChildPorts: children}
	for p, l := range nbr {
		if l.Parity == own.Parity {
			continue // tree edges connect different parities
		}
		var isParent, isChild bool
		if own.Parity == 1 {
			// Parent: even neighbor sharing the G_odd supernode color.
			isParent = l.C1 == own.C1
			// Children: even neighbors sharing the G_even supernode color.
			isChild = l.C2 == own.C2
		} else {
			isParent = l.C2 == own.C2
			isChild = l.C1 == own.C1
		}
		if isParent && isChild {
			return d, fmt.Errorf("forestcode: port %d is both parent and child candidate", p)
		}
		if isParent {
			if d.ParentPort != -1 {
				return d, errors.New("forestcode: multiple parent candidates")
			}
			d.ParentPort = p
		}
		if isChild {
			d.ChildPorts = append(d.ChildPorts, p)
		}
	}
	return d, nil
}
