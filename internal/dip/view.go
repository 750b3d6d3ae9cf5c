package dip

import "repro/internal/bitio"

// View is everything a node may legally consult: its own coins, its own
// labels, its neighbours' labels, the labels and inputs of its incident
// edges, and its own input. It is a set of accessors over the engine's
// own storage — the frozen assignments in Runner, the delivery buffers
// in the channel engine of the tests — so assembling a view copies no
// label. A View passed to Verifier.Coins or Verifier.Decide is valid
// only for the duration of that call and must not be retained.
//
// Ports number a node's incident edges 0..Deg()-1. The view never
// exposes an engine vertex id: a node knows its neighbours only by
// port, and the one question the canonical edge-input encodings ask of
// ids — which endpoint of an edge is the canonical U end — is answered
// by CanonU.
type View struct {
	// rounds holds the prover rounds delivered so far, coins the
	// verifier rounds this node has published so far.
	rounds []frozenAssignment
	coins  [][]bitio.String
	// self indexes this node's label (and row) in rounds[r].node; nbr[p]
	// port p's neighbour label (and row); edge[p] port p's edge label in
	// rounds[r].edge. The index spaces are the engine's: vertex and edge
	// ids in Runner, delivery-buffer slots in the channel engine.
	self int
	nbr  []int
	edge []int
	// v and ports are the engine vertex ids of this node and of its
	// neighbours: coins[r] is indexed by v, CanonU compares ids, and
	// eid[p] (port p's edge id) indexes edgeIn.
	v      int
	ports  []int
	eid    []int
	edgeIn []any
	input  any
	// rows is the run's row table when the verifier decodes rows.
	rows rowTable
	// round is the verifier round a Coins call is for, -1 in Decide.
	round int
	// hook observes every read; nil outside tests.
	hook viewHook
}

// Deg returns the node's degree, its number of ports.
func (v *View) Deg() int { return len(v.nbr) }

// Input returns the node's private local input (may be nil).
func (v *View) Input() any {
	if v.hook != nil && !v.hook.read(v, readInput, -1, -1) {
		return nil
	}
	return v.input
}

// Own returns the node's own label of prover round r.
func (v *View) Own(r int) bitio.String {
	if v.hook != nil && !v.hook.read(v, readOwn, -1, r) {
		return bitio.String{}
	}
	return v.rounds[r].node[v.self]
}

// Coin returns the public coin string the node published in verifier
// round r.
func (v *View) Coin(r int) bitio.String {
	if v.hook != nil && !v.hook.read(v, readCoin, -1, r) {
		return bitio.String{}
	}
	return v.coins[r][v.v]
}

// Nbr returns the label of prover round r of the neighbour at port p.
func (v *View) Nbr(p, r int) bitio.String {
	if v.hook != nil && !v.hook.read(v, readNbr, p, r) {
		return bitio.String{}
	}
	return v.rounds[r].node[v.nbr[p]]
}

// EdgeLab returns the label of prover round r of the edge at port p.
func (v *View) EdgeLab(p, r int) bitio.String {
	if v.hook != nil && !v.hook.read(v, readEdgeLab, p, r) {
		return bitio.String{}
	}
	return v.rounds[r].edge[v.edge[p]]
}

// EdgeIn returns the shared input of the edge at port p (may be nil).
func (v *View) EdgeIn(p int) any {
	if v.hook != nil && !v.hook.read(v, readEdgeIn, p, -1) {
		return nil
	}
	return v.edgeIn[v.eid[p]]
}

// CanonU reports whether this node is the canonical U end (the smaller
// endpoint under graph.Canon) of the edge at port p. Canonical
// edge-input and edge-label encodings orient an edge by this end.
func (v *View) CanonU(p int) bool {
	if v.hook != nil && !v.hook.read(v, readCanonU, p, -1) {
		return false
	}
	return v.v < v.ports[p]
}

// readKind names what a view read touches, for viewHook.
type readKind uint8

const (
	readInput readKind = iota
	readOwn
	readCoin
	readNbr
	readEdgeLab
	readEdgeIn
	readCanonU
	readOwnRow
	readNbrRow
)

// viewHook observes reads through views and row decodes. The engines
// attach the one a run's configuration carries (see RunConfig.hook);
// only the locality tests set one.
type viewHook interface {
	// read is called before every read through view: kind, port (-1
	// for the node's own data) and round (-1 where none applies). A
	// false return vetoes the read, and the accessor returns the zero
	// value instead of touching the engine's storage.
	read(view *View, kind readKind, port, round int) bool
	// decodeRow is called for every row decode into t at index idx.
	decodeRow(t rowTable, idx int)
}
