// Package edgesim implements Lemma 2.4: simulating edge labels with node
// labels on planar graphs at constant overhead.
//
// The edge set of a planar graph decomposes into boundedly many forests
// (Nash–Williams gives 3; we use the constructive 5-degenerate
// orientation, giving at most 5 parent-pointer forests — see DESIGN.md
// §4). Each forest is communicated with the constant-size forest code of
// Lemma 2.3, and the label of edge (u, parent_i(u)) is written into slot
// i of u's node label. Both endpoints can then recover every incident
// edge label: the child from its own slot, the parent by decoding the
// forest and reading its children's slots.
//
// The protocol packages use the engine's equivalent accounting (each
// edge label is charged to its accountable endpoint); this package is
// the explicit, self-contained construction with its own tests.
package edgesim

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/forestcode"
	"repro/internal/graph"
)

// MaxForests bounds the forest count: planar graphs are 5-degenerate.
const MaxForests = 5

// Encoding is the per-node simulation of an edge-label assignment.
type Encoding struct {
	// Forest[i][v] is the Lemma 2.3 label of v in forest i.
	Forest [][]forestcode.Label
	// Slot[i][v] is the label of the edge from v to its forest-i parent
	// (empty when v has none).
	Slot [][]bitio.String
	// NumForests is the number of forests actually used.
	NumForests int
}

// Encode decomposes g's edges into parent-pointer forests and hosts each
// edge label at the child endpoint. Fails if g needs more than
// MaxForests forests (impossible for planar graphs).
func Encode(g *graph.Graph, edgeLabels map[graph.Edge]bitio.String) (*Encoding, error) {
	out, _ := graph.OrientByDegeneracy(g)
	n := g.N()
	nf := 0
	for v := range out {
		if len(out[v]) > nf {
			nf = len(out[v])
		}
	}
	if nf > MaxForests {
		return nil, fmt.Errorf("edgesim: graph needs %d forests (> %d): not sparse enough", nf, MaxForests)
	}
	enc := &Encoding{NumForests: nf}
	for i := 0; i < nf; i++ {
		parent := make([]int, n)
		for v := range parent {
			parent[v] = -1
		}
		for v := range out {
			if i < len(out[v]) {
				parent[v] = out[v][i]
			}
		}
		fl, err := forestcode.EncodeForest(g, parent)
		if err != nil {
			return nil, fmt.Errorf("edgesim: forest %d: %w", i, err)
		}
		slots := make([]bitio.String, n)
		for v := range out {
			if i < len(out[v]) {
				e := graph.Canon(v, out[v][i])
				slots[v] = edgeLabels[e]
			}
		}
		enc.Forest = append(enc.Forest, fl)
		enc.Slot = append(enc.Slot, slots)
	}
	return enc, nil
}

// NodeBits returns the simulated node-label size of v: its forest-code
// labels plus the edge labels it hosts. The overhead over the raw edge
// labels is the constant NumForests * forestcode.LabelBits.
func (enc *Encoding) NodeBits(v int) int {
	bits := enc.NumForests * forestcode.LabelBits
	for i := 0; i < enc.NumForests; i++ {
		bits += enc.Slot[i][v].Len()
	}
	return bits
}

// DecodeAt recovers, at node v, the labels of all its incident edges
// from its own simulated label and its neighbors' simulated labels —
// exactly the information flow the lemma requires. Returns a map from
// port (index into g.Neighbors(v)) to the edge label.
func (enc *Encoding) DecodeAt(g *graph.Graph, v int) (map[int]bitio.String, error) {
	result := make(map[int]bitio.String, g.Degree(v))
	nbrs := g.Neighbors(v)
	for i := 0; i < enc.NumForests; i++ {
		nbrLabels := make([]forestcode.Label, len(nbrs))
		for p, u := range nbrs {
			nbrLabels[p] = enc.Forest[i][u]
		}
		dec, err := forestcode.Decode(enc.Forest[i][v], nbrLabels, nil)
		if err != nil {
			return nil, fmt.Errorf("edgesim: decode forest %d at %d: %w", i, v, err)
		}
		if dec.ParentPort != -1 {
			// v hosts this edge's label itself.
			result[dec.ParentPort] = enc.Slot[i][v]
		}
		for _, cp := range dec.ChildPorts {
			// The child hosts the label; v reads it from the child's
			// simulated node label.
			result[cp] = enc.Slot[i][nbrs[cp]]
		}
	}
	return result, nil
}
