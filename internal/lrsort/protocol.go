package lrsort

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
)

// EdgeInput is the shared local input of one edge: whether it belongs to
// the given Hamiltonian path and its direction. FromU means the edge is
// directed from Canon(u,v).U to Canon(u,v).V.
type EdgeInput struct {
	OnPath bool
	FromU  bool
}

// NewDIPInstance converts an LR-sorting instance into an engine instance:
// the path and the edge orientations become shared edge inputs. A pair
// that is not an edge of G gets no input; the prover reports it.
func NewDIPInstance(inst *Instance) *dip.Instance {
	g := inst.G
	di := dip.NewInstance(g)
	di.EdgeInput = make([]any, g.M())
	n := g.N()
	at := make([]int, n)
	for v, q := range inst.Pos {
		at[q] = v
	}
	for q := 0; q+1 < n; q++ {
		if id := g.EdgeID(at[q], at[q+1]); id >= 0 {
			di.EdgeInput[id] = EdgeInput{OnPath: true, FromU: at[q] < at[q+1]}
		}
	}
	for _, de := range inst.Edges {
		if id := g.EdgeID(de.Tail, de.Head); id >= 0 {
			di.EdgeInput[id] = EdgeInput{OnPath: false, FromU: de.Tail < de.Head}
		}
	}
	return di
}

// Protocol wires the LR-sorting DIP: 5 interaction rounds (P V P V P).
func Protocol(inst *Instance, p Params) *dip.Protocol {
	return &dip.Protocol{
		Name:           "lr-sorting",
		ProverRounds:   3,
		VerifierRounds: 2,
		NewProver:      func() dip.Prover { return &engineProver{p: p, inst: inst} },
		Verifier:       Verifier{P: p},
	}
}

// engineProver adapts Honest to the engine's Prover interface.
type engineProver struct {
	p    Params
	inst *Instance
	h    *Honest
	ids  []int // edge id of each directed edge
	// lie, when set, rewrites the round-1 products before they are sent.
	lie func(h *Honest)
}

func (ep *engineProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	g := ep.inst.G
	switch round {
	case 0:
		h, err := NewHonest(ep.p, ep.inst)
		if err != nil {
			return nil, err
		}
		ep.h, ep.ids = h, make([]int, len(ep.inst.Edges))
		for i, de := range ep.inst.Edges {
			if ep.ids[i] = g.EdgeID(de.Tail, de.Head); ep.ids[i] < 0 {
				return nil, fmt.Errorf("lrsort: edge (%d,%d) not in graph", de.Tail, de.Head)
			}
		}
		h.Round1()
		if ep.lie != nil {
			ep.lie(h)
		}
		a := dip.NewEdgeAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = h.R1Node[v].Encode(ep.p)
		}
		for i, l := range h.R1Edge {
			a.Edge[ep.ids[i]] = l.Encode(ep.p)
		}
		return a, nil
	case 1:
		cs := make([]CoinsV1, g.N())
		for v := range cs {
			c, err := DecodeCoinsV1(coins[0][v], ep.p)
			if err != nil {
				return nil, err
			}
			c.R %= ep.p.F0.P
			c.RP %= ep.p.F0.P
			c.RB %= ep.p.F0.P
			cs[v] = c
		}
		ep.h.Round2(cs)
		a := dip.NewEdgeAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = ep.h.R2Node[v].Encode(ep.p)
		}
		for i, l := range ep.h.R2Edge {
			if !ep.h.R1Edge[i].Inner {
				a.Edge[ep.ids[i]] = l.Encode(ep.p)
			}
		}
		return a, nil
	case 2:
		cs := make([]CoinsV2, g.N())
		for v := range cs {
			c, err := DecodeCoinsV2(coins[1][v], ep.p)
			if err != nil {
				return nil, err
			}
			c.Z0 %= ep.p.F1.P
			c.Z1 %= ep.p.F1.P
			cs[v] = c
		}
		ep.h.Round3(cs)
		a := dip.NewAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = ep.h.R3Node[v].Encode(ep.p)
		}
		return a, nil
	}
	return nil, fmt.Errorf("lrsort: unexpected prover round %d", round)
}

// Verifier is the distributed LR-sorting verifier.
type Verifier struct {
	P Params
}

// Coins samples the per-round public randomness.
func (vf Verifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	switch round {
	case 0:
		return CoinsV1{
			R:  uint64(rng.Int63n(int64(vf.P.F0.P))),
			RP: uint64(rng.Int63n(int64(vf.P.F0.P))),
			RB: uint64(rng.Int63n(int64(vf.P.F0.P))),
		}.Encode(vf.P)
	case 1:
		return CoinsV2{
			Z0: uint64(rng.Int63n(int64(vf.P.F1.P))),
			Z1: uint64(rng.Int63n(int64(vf.P.F1.P))),
		}.Encode(vf.P)
	}
	return bitio.String{}
}

// Decide assembles the node view from the engine and runs CheckNode.
func (vf Verifier) Decide(view *dip.View) bool {
	nv, ok := assembleView(vf.P, view)
	if !ok {
		return false
	}
	return CheckNode(vf.P, nv)
}

// assembleView decodes the engine view into an LR-sorting NodeView.
func assembleView(p Params, view *dip.View) (*NodeView, bool) {
	nv := &NodeView{}
	var err error
	if nv.R1, err = DecodeRound1Node(view.Own(0), p); err != nil {
		return nil, false
	}
	if nv.R2, err = DecodeRound2Node(view.Own(1), p); err != nil {
		return nil, false
	}
	if nv.R3, err = DecodeRound3Node(view.Own(2), p); err != nil {
		return nil, false
	}
	if nv.C1, err = DecodeCoinsV1(view.Coin(0), p); err != nil {
		return nil, false
	}
	if nv.C2, err = DecodeCoinsV2(view.Coin(1), p); err != nil {
		return nil, false
	}
	for port := 0; port < view.Deg(); port++ {
		ei, okIn := view.EdgeIn(port).(EdgeInput)
		if !okIn {
			return nil, false
		}
		nbr, ok := decodeNbr(p, view, port)
		if !ok {
			return nil, false
		}
		// Out: is this node the tail of the directed edge? The edge is
		// (Canon.U -> Canon.V) iff FromU.
		out := view.CanonU(port) == ei.FromU
		if ei.OnPath {
			if out {
				nv.HasRight = true
				nv.Right = nbr
			} else {
				nv.HasLeft = true
				nv.Left = nbr
			}
			continue
		}
		ev := EdgeView{Out: out, Nbr: nbr}
		if ev.R1, err = DecodeRound1Edge(view.EdgeLab(port, 0), p); err != nil {
			return nil, false
		}
		if !ev.R1.Inner {
			if ev.R2, err = DecodeRound2Edge(view.EdgeLab(port, 1), p); err != nil {
				return nil, false
			}
		}
		nv.Edges = append(nv.Edges, ev)
	}
	return nv, true
}

func decodeNbr(p Params, view *dip.View, port int) (*NbrLabels, bool) {
	var nbr NbrLabels
	var err error
	if nbr.R1, err = DecodeRound1Node(view.Nbr(port, 0), p); err != nil {
		return nil, false
	}
	if nbr.R2, err = DecodeRound2Node(view.Nbr(port, 1), p); err != nil {
		return nil, false
	}
	if nbr.R3, err = DecodeRound3Node(view.Nbr(port, 2), p); err != nil {
		return nil, false
	}
	return &nbr, true
}
