package dip

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

func k4() *graph.Graph {
	g := graph.New(4)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// TestEdgeLabelAccountingK4 pins down the Lemma 2.4 charging rule on a
// graph where orientation matters: on K4 every vertex sees all three
// other vertices, but each of the six edge labels must be charged to
// exactly one endpoint — the one accountable for the edge under the
// degeneracy orientation — and Stats.LabelBits must reflect that.
func TestEdgeLabelAccountingK4(t *testing.T) {
	cases := []struct {
		name     string
		nodeBits func(v int) int
		edgeBits func(eid int) int
	}{
		{"edges-only", func(int) int { return 0 }, func(eid int) int { return eid + 1 }},
		{"nodes-only", func(v int) int { return 3 * (v + 1) }, func(int) int { return 0 }},
		{"mixed", func(v int) int { return v + 2 }, func(eid int) int { return 2 * (eid + 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := k4()
			out, degen := graph.OrientByDegeneracy(g)
			if degen != 3 {
				t.Fatalf("K4 degeneracy = %d, want 3", degen)
			}

			a := NewEdgeAssignment(g)
			for v := 0; v < g.N(); v++ {
				if w := tc.nodeBits(v); w > 0 {
					a.Node[v] = bitio.FromUint(1, w)
				}
			}
			for eid := range g.Edges() {
				if w := tc.edgeBits(eid); w > 0 {
					a.Edge[eid] = bitio.FromUint(1, w)
				}
			}

			inst := NewInstance(g)
			res, err := NewRunner(inst).Run(&fixedProver{assigns: []*Assignment{a}},
				echoVerifier{decide: func(*View) bool { return true }},
				1, 0, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			round := res.Stats.LabelBits[0]

			// Per node: node label plus exactly the out-oriented edges.
			total := 0
			for v := 0; v < g.N(); v++ {
				want := tc.nodeBits(v)
				for _, u := range out[v] {
					want += tc.edgeBits(g.EdgeID(v, u))
				}
				if round[v] != want {
					t.Errorf("node %d charged %d bits, want %d (out=%v)", v, round[v], want, out[v])
				}
				total += round[v]
			}

			// Globally: every node and edge label counted exactly once —
			// no edge dropped, none double-charged to both endpoints.
			want := 0
			for v := 0; v < g.N(); v++ {
				want += tc.nodeBits(v)
			}
			for eid := range g.Edges() {
				want += tc.edgeBits(eid)
			}
			if total != want || res.Stats.TotalLabelBits != want {
				t.Fatalf("total charged %d (stats %d), want %d", total, res.Stats.TotalLabelBits, want)
			}
		})
	}
}

// badTableLengths are the table lengths, for a graph of m edges, that
// the length check at the freeze boundary must refuse.
func badTableLengths(m int) map[string]int {
	return map[string]int{"length 1": 1, "length m-1": m - 1, "length m+1": m + 1}
}

// TestFreezeRejectsSmuggledEdgeLabels pins the freeze-time validation
// of prover assignments. Edge labels are an edge-id table of length 0
// or m, and every entry of an m-length table is a real edge that the
// accounting charges, so the length check is the whole validation
// boundary: a table of any other length would carry label bits no
// accountable endpoint is charged for. Both engines must reject such an
// assignment as an error instead of running to a verdict.
func TestFreezeRejectsSmuggledEdgeLabels(t *testing.T) {
	g := pathGraph(4)
	for name, size := range badTableLengths(g.M()) {
		t.Run(name, func(t *testing.T) {
			a := NewAssignment(g)
			a.Edge = make([]bitio.String, size)
			for id := range a.Edge {
				a.Edge[id] = bitio.FromUint(1, 64) // the smuggled bits
			}
			v := echoVerifier{decide: func(*View) bool { return true }}
			if _, err := NewRunner(NewInstance(g)).Run(&fixedProver{assigns: []*Assignment{a}},
				v, 1, 0, rand.New(rand.NewSource(1))); err == nil {
				t.Error("runner accepted assignment with unaccountable edge labels")
			}
			if _, err := newChannelRunner(NewInstance(g)).Run(&fixedProver{assigns: []*Assignment{a}},
				v, 2, 1, rand.New(rand.NewSource(1))); err == nil {
				t.Error("channel engine accepted assignment with unaccountable edge labels")
			}
		})
	}
}

// TestRunRejectsUnknownEdgeInput is the same validation for the
// instance itself: an edge-input table that is neither empty nor one
// entry per edge is a construction bug, surfaced at the first run of
// either engine instead of silently misread input.
func TestRunRejectsUnknownEdgeInput(t *testing.T) {
	g := pathGraph(4)
	for name, size := range badTableLengths(g.M()) {
		t.Run(name, func(t *testing.T) {
			inst := NewInstance(g)
			inst.EdgeInput = make([]any, size)
			for id := range inst.EdgeInput {
				inst.EdgeInput[id] = "orphan"
			}
			v := echoVerifier{decide: func(*View) bool { return true }}
			if _, err := NewRunner(inst).Run(&fixedProver{assigns: []*Assignment{NewAssignment(g)}},
				v, 1, 0, rand.New(rand.NewSource(1))); err == nil {
				t.Error("runner accepted a mis-sized edge-input table")
			}
			if _, err := newChannelRunner(inst).Run(&fixedProver{assigns: []*Assignment{NewAssignment(g)}},
				v, 1, 0, rand.New(rand.NewSource(1))); err == nil {
				t.Error("channel engine accepted a mis-sized edge-input table")
			}
		})
	}
}

// TestFreezeSharesEdgeLabels pins the cost of delivering a round with
// edge labels: freezing checks the table's length and reads the
// prover's own slices, so it allocates nothing.
func TestFreezeSharesEdgeLabels(t *testing.T) {
	g := k4()
	fi := NewRunner(NewInstance(g)).fi
	a := NewEdgeAssignment(g)
	for id := range a.Edge {
		a.Edge[id] = bitio.FromUint(uint64(id), 3)
	}
	var fa frozenAssignment
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if fa, err = fi.freeze(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("freezing a labelled round allocated %.1f times per run, want 0", allocs)
	}
	if &fa.edge[0] != &a.Edge[0] || &fa.node[0] != &a.Node[0] {
		t.Error("the frozen round does not read the prover's own tables")
	}
}

// TestAccountableCoversEachEdgeOnce checks the orientation-derived
// accountability lists directly: on K4 the six edge ids partition across
// the four per-node lists with no repeats and none missing.
func TestAccountableCoversEachEdgeOnce(t *testing.T) {
	g := k4()
	r := NewRunner(NewInstance(g))
	seen := make(map[int]int)
	for v, eids := range r.fi.accountable {
		for _, eid := range eids {
			seen[eid]++
			e := g.Edges()[eid]
			if e.U != v && e.V != v {
				t.Errorf("node %d accountable for non-incident edge %v", v, e)
			}
		}
	}
	if len(seen) != g.M() {
		t.Fatalf("accountable lists cover %d of %d edges", len(seen), g.M())
	}
	for eid, cnt := range seen {
		if cnt != 1 {
			t.Errorf("edge %d charged %d times", eid, cnt)
		}
	}
}
