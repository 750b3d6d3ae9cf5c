package dip

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// freezeCount counts frozenInstance densifications process-wide. The
// freeze-once guarantees of Repeat, the soundness estimator, and the
// serving layer are asserted against it: a sweep that re-densifies per
// run shows up as a counter delta equal to its run count instead of 1.
var freezeCount atomic.Uint64

// FreezeCount returns the number of instance densifications performed
// by this process so far. It only ever increases; callers compare
// before/after deltas.
func FreezeCount() uint64 { return freezeCount.Load() }

// freeze returns the instance's dense form, densifying on first use and
// memoizing it on the instance, so every runner built on inst — and
// every run of each — shares one freeze. The frozen form is read-only,
// so concurrent runners (one per goroutine) may share it. Validation is
// deferred to the first Run (see frozenInstance.check), so NewRunner
// keeps its no-error signature.
func (inst *Instance) freeze() *frozenInstance {
	inst.frozenMu.Lock()
	defer inst.frozenMu.Unlock()
	if inst.frozen == nil {
		inst.frozen = newFrozenInstance(inst)
	}
	return inst.frozen
}

// frozenInstance is the dense, run-ready form of an Instance, built
// once per instance and shared by every runner and run on it. Inputs
// and labels are edge-id tables from the start, so freezing checks
// their lengths and shares them, and a view read does zero hashing and
// zero Canon calls.
type frozenInstance struct {
	g *graph.Graph
	n int
	// nodeIn aliases Instance.NodeInput.
	nodeIn []any
	// edgeIn[eid] is the shared input of edge eid: Instance.EdgeInput,
	// or an all-nil table when the instance has none. check rejects any
	// other length.
	edgeIn []any
	// ports[v] aliases g.Neighbors(v); portEID[v] aliases g.PortEdgeIDs(v).
	ports   [][]int
	portEID [][]int
	// accountable[v] lists edge ids charged to v (bounded-outdegree
	// orientation; <= degeneracy many per node, <= 5 on planar graphs).
	accountable [][]int
	// emptyEdges is an all-zero length-M slice shared by every frozen
	// assignment of a round with no edge labels, so a view read never
	// branches on "did this round label edges".
	emptyEdges []bitio.String
}

// newFrozenInstance densifies inst. Orientation (for edge-label
// accounting) is computed here, once per instance.
// The whole pass is CSR-native: accountable edge ids come from the
// graph's memoized degeneracy rank plus the port->edge-id tables, with
// one flat backing array — no per-edge hash lookups and no per-vertex
// slice headers, so freezing a million-node instance is a handful of
// allocations.
func newFrozenInstance(inst *Instance) *frozenInstance {
	g := inst.G
	n := g.N()
	rank, _ := g.DegeneracyRank()
	edgeIn := inst.EdgeInput
	if len(edgeIn) == 0 {
		edgeIn = make([]any, g.M())
	}
	fi := &frozenInstance{
		g:          g,
		n:          n,
		nodeIn:     inst.NodeInput,
		edgeIn:     edgeIn,
		ports:      make([][]int, n),
		portEID:    make([][]int, n),
		emptyEdges: make([]bitio.String, g.M()),
	}
	for v := 0; v < n; v++ {
		fi.ports[v] = g.Neighbors(v)
		fi.portEID[v] = g.PortEdgeIDs(v)
	}
	// A node is accountable for the incident edges it precedes in the
	// degeneracy order — the same orientation graph.OrientByDegeneracy
	// derives, read off the ports directly. Per-vertex port order is
	// edge-insertion order, which for a fixed vertex is increasing edge
	// id, so the lists match the historical EdgeID-lookup construction
	// element for element.
	accOff := make([]int, n+1)
	for v := 0; v < n; v++ {
		cnt := 0
		for _, u := range fi.ports[v] {
			if rank[v] < rank[u] {
				cnt++
			}
		}
		accOff[v+1] = accOff[v] + cnt
	}
	accFlat := make([]int, accOff[n])
	acc := make([][]int, n)
	for v := 0; v < n; v++ {
		w := accFlat[accOff[v]:accOff[v]:accOff[v+1]]
		eids := fi.portEID[v]
		for p, u := range fi.ports[v] {
			if rank[v] < rank[u] {
				w = append(w, eids[p])
			}
		}
		acc[v] = w
	}
	fi.accountable = acc
	freezeCount.Add(1)
	return fi
}

// check reports the deferred freeze-time validation error, if any.
// NewRunner has no error return, so instance-level problems surface at
// the first Run instead.
func (fi *frozenInstance) check() error {
	if len(fi.edgeIn) != fi.g.M() {
		return fmt.Errorf("dip: instance has %d edge inputs, want 0 or %d", len(fi.edgeIn), fi.g.M())
	}
	return nil
}

// frozenAssignment is one prover round in dense form: labels indexed by
// vertex and edge id, no maps on the read path.
type frozenAssignment struct {
	node []bitio.String
	edge []bitio.String // by edge id; fi.emptyEdges when the round labeled none
}

// freeze delivers one prover-round assignment: it shares the prover's
// tables, so a round with edge labels costs a length check. The length
// check is the validation boundary — every entry of an M-length table
// is a real edge, which accumulate charges to its accountable endpoint,
// so no label bit can bypass the Stats accounting.
func (fi *frozenInstance) freeze(a *Assignment) (frozenAssignment, error) {
	switch len(a.Edge) {
	case 0:
		return frozenAssignment{node: a.Node, edge: fi.emptyEdges}, nil
	case fi.g.M():
		return frozenAssignment{node: a.Node, edge: a.Edge}, nil
	}
	return frozenAssignment{}, fmt.Errorf("dip: assignment has %d edge labels, want 0 or %d", len(a.Edge), fi.g.M())
}

// accumulate meters one frozen prover round into st under the
// accountable-endpoint charging rule (Lemma 2.4): each node is charged
// its node label plus the labels of its out-oriented edges.
func (fi *frozenInstance) accumulate(fa frozenAssignment, st *Stats) {
	round := make([]int, fi.n)
	for v := 0; v < fi.n; v++ {
		bits := fa.node[v].Len()
		for _, eid := range fi.accountable[v] {
			bits += fa.edge[eid].Len()
		}
		round[v] = bits
		st.TotalLabelBits += bits
		if bits > st.MaxLabelBits {
			st.MaxLabelBits = bits
		}
	}
	st.LabelBits = append(st.LabelBits, round)
}

// viewScratch is one worker's reusable View and coin-stream cursor.
// The view is repointed at each node in turn (see frozenInstance.at);
// nothing is copied into it.
type viewScratch struct {
	view View
	// labels gathers one node's labels for a row decode.
	labels []bitio.String
	// cur/rng are the worker's coin-stream cursor: one rand.Rand for the
	// worker's whole life, repointed at each node's splitmix64 state
	// before Verifier.Coins (see cursorSource).
	cur cursorSource
	rng *rand.Rand
}

// newViewScratch builds a worker scratch with its cursor rng wired up.
func newViewScratch() *viewScratch {
	s := &viewScratch{}
	s.rng = rand.New(&s.cur)
	return s
}

// begin points the worker's view at a phase of a run: the delivered
// rounds, the published coins, the verifier round of a Coins batch (-1
// for Decide), the run's rows and the run's hook.
func (s *viewScratch) begin(fi *frozenInstance, rounds []frozenAssignment, coins [][]bitio.String, round int, rows rowTable, hook viewHook) *View {
	s.view = View{rounds: rounds, coins: coins, edgeIn: fi.edgeIn, rows: rows, round: round, hook: hook}
	return &s.view
}

// at points view at node x. In Runner the label and row index spaces
// are vertex and edge ids, so the port tables serve as both index and
// id tables.
func (fi *frozenInstance) at(view *View, x int) {
	view.self, view.v = x, x
	view.nbr, view.ports = fi.ports[x], fi.ports[x]
	view.edge, view.eid = fi.portEID[x], fi.portEID[x]
	view.input = fi.nodeIn[x]
}
