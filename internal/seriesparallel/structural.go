// Package seriesparallel implements the series-parallel DIP of Theorem
// 1.6, built on Eppstein's characterization (Lemma 8.1): a graph is
// series-parallel iff it admits a nested ear decomposition.
//
// The prover commits the decomposition: the sub-ears P'_i (interior
// paths) as a forest-coded spanning forest, connecting-edge marks, and
// per-ear random values (ear, pred_ear) that anchor condition (1); the
// verifier checks acyclicity of the forest with telescoping sums, the
// endpoints' attachment to their host ears via the random values, and
// condition (3) — proper nesting of the ears hosted on each ear — by the
// path-outerplanarity machinery of Theorem 1.2 with hosted ears acting as
// virtual chords.
package seriesparallel

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/forestcode"
	"repro/internal/graph"
)

// Params configures the structural stage.
type Params struct {
	// L is the random-string and telescoping-repetition length.
	L int
}

// NewParams derives parameters from n.
func NewParams(n int) Params {
	l := 3 * bitio.BitsFor(bitio.BitsFor(n)+1)
	if l < 8 {
		l = 8
	}
	if l > 63 {
		l = 63
	}
	return Params{L: l}
}

// Edge classification in the committed decomposition.
const (
	edgeSubEar     = 0 // an edge of some sub-ear path P'_i (also in F)
	edgeConnecting = 1 // first/last edge of a multi-edge ear
	edgeSingleEar  = 2 // an ear that is a single edge
)

type structR1 struct {
	FC   forestcode.Label
	InP1 bool // node lies on the first ear
}

func (l structR1) encode() bitio.String {
	var w bitio.Writer
	w.WriteString(l.FC.Encode())
	w.WriteBool(l.InP1)
	return w.String()
}

func decodeStructR1(s bitio.String) (structR1, error) {
	r := s.Reader()
	fc, err := forestcode.ReadLabel(r)
	if err != nil {
		return structR1{}, fmt.Errorf("seriesparallel: r1: %w", err)
	}
	inP1, err := r.ReadBool()
	if err != nil {
		return structR1{}, err
	}
	return structR1{FC: fc, InP1: inP1}, nil
}

type structEdge1 struct {
	Kind int // edgeSubEar / edgeConnecting / edgeSingleEar
	// ConnectsCanonU: for connecting edges, the sub-ear endpoint is
	// Canon(u,v).U (the other endpoint lies on the host ear).
	ConnectsCanonU bool
}

func (l structEdge1) encode() bitio.String {
	var w bitio.Writer
	w.WriteUint(uint64(l.Kind), 2)
	w.WriteBool(l.ConnectsCanonU)
	return w.String()
}

func decodeStructEdge1(s bitio.String) (structEdge1, error) {
	r := s.Reader()
	k, err := r.ReadUint(2)
	if err != nil {
		return structEdge1{}, fmt.Errorf("seriesparallel: e1: %w", err)
	}
	cu, err := r.ReadBool()
	if err != nil {
		return structEdge1{}, err
	}
	return structEdge1{Kind: int(k), ConnectsCanonU: cu}, nil
}

type structCoin struct {
	R uint64 // the node's r_Q draw (consumed at sub-ear roots)
	A uint64 // telescoping bits
}

func (c structCoin) encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(c.R, p.L)
	w.WriteUint(c.A, p.L)
	return w.String()
}

func decodeStructCoin(s bitio.String, p Params) (structCoin, error) {
	r := s.Reader()
	var c structCoin
	var err error
	if c.R, err = r.ReadUint(p.L); err != nil {
		return c, fmt.Errorf("seriesparallel: coin: %w", err)
	}
	if c.A, err = r.ReadUint(p.L); err != nil {
		return c, err
	}
	return c, nil
}

type structR2 struct {
	Ear     uint64 // r value of the node's own sub-ear
	PredEar uint64 // r value of the host ear (0 on the first ear)
	Sum     uint64 // telescoping XOR along the sub-ear
}

func (l structR2) encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(l.Ear, p.L)
	w.WriteUint(l.PredEar, p.L)
	w.WriteUint(l.Sum, p.L)
	return w.String()
}

func decodeStructR2(s bitio.String, p Params) (structR2, error) {
	r := s.Reader()
	var l structR2
	var err error
	if l.Ear, err = r.ReadUint(p.L); err != nil {
		return l, fmt.Errorf("seriesparallel: r2: %w", err)
	}
	if l.PredEar, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	if l.Sum, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	return l, nil
}

// structEdge2 is the round-2 label of connecting and single-ear edges:
// the r value of the hosting ear. The sub-ear side compares it with its
// pred_ear; the host side justifies it locally (it either lives on that
// ear or is one of its endpoints, witnessed by another connecting edge).
type structEdge2 struct {
	HostR uint64
}

func (l structEdge2) encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(l.HostR, p.L)
	return w.String()
}

func decodeStructEdge2(s bitio.String, p Params) (structEdge2, error) {
	r := s.Reader()
	v, err := r.ReadUint(p.L)
	if err != nil {
		return structEdge2{}, fmt.Errorf("seriesparallel: e2: %w", err)
	}
	return structEdge2{HostR: v}, nil
}

// structProver commits a planned ear decomposition.
type structProver struct {
	p    Params
	plan *Plan
	g    *graph.Graph
}

// hostOfEdge returns the index of the ear hosting the (connecting or
// single-ear) edge e: for a connecting edge of ear j it is Host[j]; for a
// single-edge ear it is its own host.
func (sp *structProver) hostOfEdge(e graph.Edge) int {
	for j, ear := range sp.plan.Ears {
		if len(ear) == 2 {
			if graph.Canon(ear[0], ear[1]) == e {
				return sp.plan.Host[j]
			}
			continue
		}
		if j == 0 {
			continue
		}
		interior := ear[1 : len(ear)-1]
		first := graph.Canon(ear[0], interior[0])
		last := graph.Canon(interior[len(interior)-1], ear[len(ear)-1])
		if e == first || e == last {
			return sp.plan.Host[j]
		}
	}
	return -1
}

func (sp *structProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	g := sp.g
	switch round {
	case 0:
		fc, err := forestcode.EncodeForest(g, sp.plan.ParentF)
		if err != nil {
			return nil, err
		}
		a := dip.NewEdgeAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = structR1{FC: fc[v], InP1: sp.plan.EarOf[v] == 0}.encode()
		}
		for e, cls := range sp.plan.EdgeKind {
			a.Edge[g.EdgeID(e.U, e.V)] = structEdge1{Kind: cls.Kind, ConnectsCanonU: cls.ConnectsCanonU}.encode()
		}
		return a, nil
	case 1:
		n := g.N()
		cs := make([]structCoin, n)
		for v := 0; v < n; v++ {
			c, err := decodeStructCoin(coins[0][v], sp.p)
			if err != nil {
				return nil, err
			}
			cs[v] = c
		}
		// Per-sub-ear r values, anchored at the sub-ear's first node.
		earR := make([]uint64, len(sp.plan.Ears))
		for i, first := range sp.plan.SubEarFirst {
			if first >= 0 {
				earR[i] = cs[first].R
			}
		}
		// Telescoping sums along each sub-ear (memoized walk-up).
		sums := make([]uint64, n)
		done := make([]bool, n)
		var stack []int
		for v := 0; v < n; v++ {
			u := v
			for !done[u] && sp.plan.ParentF[u] != -1 {
				stack = append(stack, u)
				u = sp.plan.ParentF[u]
			}
			if !done[u] {
				sums[u] = cs[u].A
				done[u] = true
			}
			for len(stack) > 0 {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				sums[w] = cs[w].A ^ sums[sp.plan.ParentF[w]]
				done[w] = true
			}
		}
		a := dip.NewEdgeAssignment(g)
		for v := 0; v < n; v++ {
			ear := sp.plan.EarOf[v]
			var pred uint64
			if host := sp.plan.Host[ear]; host >= 0 {
				pred = earR[host]
			}
			a.Node[v] = structR2{Ear: earR[ear], PredEar: pred, Sum: sums[v]}.encode(sp.p)
		}
		for e, cls := range sp.plan.EdgeKind {
			if cls.Kind == edgeSubEar {
				continue
			}
			host := sp.hostOfEdge(e)
			var hr uint64
			if host >= 0 {
				hr = earR[host]
			}
			a.Edge[g.EdgeID(e.U, e.V)] = structEdge2{HostR: hr}.encode(sp.p)
		}
		return a, nil
	}
	return nil, fmt.Errorf("seriesparallel: unexpected round %d", round)
}

type structVerifier struct {
	p Params
}

func (sv structVerifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	return structCoin{
		R: rng.Uint64() & ((1 << uint(sv.p.L)) - 1),
		A: rng.Uint64() & ((1 << uint(sv.p.L)) - 1),
	}.encode(sv.p)
}

func (sv structVerifier) Decide(view *dip.View) bool {
	own1, err := decodeStructR1(view.Own(0))
	if err != nil {
		return false
	}
	own2, err := decodeStructR2(view.Own(1), sv.p)
	if err != nil {
		return false
	}
	coin, err := decodeStructCoin(view.Coin(0), sv.p)
	if err != nil {
		return false
	}
	deg := view.Deg()
	nbr1 := make([]structR1, deg)
	nbr2 := make([]structR2, deg)
	fcNbr := make([]forestcode.Label, deg)
	edges := make([]structEdge1, deg)
	hostR := make([]structEdge2, deg)
	for port := 0; port < deg; port++ {
		if nbr1[port], err = decodeStructR1(view.Nbr(port, 0)); err != nil {
			return false
		}
		if nbr2[port], err = decodeStructR2(view.Nbr(port, 1), sv.p); err != nil {
			return false
		}
		if edges[port], err = decodeStructEdge1(view.EdgeLab(port, 0)); err != nil {
			return false
		}
		if edges[port].Kind != edgeSubEar {
			if hostR[port], err = decodeStructEdge2(view.EdgeLab(port, 1), sv.p); err != nil {
				return false
			}
		}
		fcNbr[port] = nbr1[port].FC
	}
	dec, err := forestcode.Decode(own1.FC, fcNbr, nil)
	if err != nil {
		return false
	}
	if len(dec.ChildPorts) > 1 {
		return false // sub-ears are simple paths
	}
	// F edges must be labeled as sub-ear edges and vice versa.
	isF := make([]bool, deg)
	if dec.ParentPort != -1 {
		isF[dec.ParentPort] = true
	}
	for _, cp := range dec.ChildPorts {
		isF[cp] = true
	}
	for port := 0; port < deg; port++ {
		if isF[port] != (edges[port].Kind == edgeSubEar) {
			return false
		}
	}
	// Telescoping acyclicity + ear-value anchoring.
	if dec.ParentPort == -1 {
		if own2.Sum != coin.A {
			return false
		}
		if own2.Ear != coin.R {
			return false
		}
	} else {
		if own2.Sum != coin.A^nbr2[dec.ParentPort].Sum {
			return false
		}
		if own2.Ear != nbr2[dec.ParentPort].Ear || own2.PredEar != nbr2[dec.ParentPort].PredEar {
			return false
		}
	}
	// onEar(r) reports whether this node can justify lying on the ear
	// with value r: either it is interior to that ear, or it is an
	// endpoint of it, witnessed by an incident connecting edge whose
	// sub-ear side carries ear value r.
	onEar := func(r uint64) bool {
		if own2.Ear == r {
			return true
		}
		for port := 0; port < deg; port++ {
			if edges[port].Kind != edgeConnecting {
				continue
			}
			subSideIsMe := view.CanonU(port) == edges[port].ConnectsCanonU
			if !subSideIsMe && nbr2[port].Ear == r {
				return true
			}
		}
		return false
	}

	// Connecting edges: the sub-ear endpoints (root = first interior
	// node; childless = last interior node) each carry exactly one
	// connecting edge; its committed host value must match the sub-ear
	// side's pred_ear, and the host side must justify membership
	// (condition 1).
	needConnecting := 0
	if !own1.InP1 {
		if dec.ParentPort == -1 {
			needConnecting++
		}
		if len(dec.ChildPorts) == 0 {
			needConnecting++
		}
	}
	have := 0
	for port := 0; port < deg; port++ {
		switch edges[port].Kind {
		case edgeConnecting:
			mine := view.CanonU(port) == edges[port].ConnectsCanonU
			if mine {
				have++
				if hostR[port].HostR != own2.PredEar {
					return false
				}
			} else {
				if !onEar(hostR[port].HostR) {
					return false
				}
			}
		case edgeSingleEar:
			// Both endpoints must lie on the committed host ear.
			if !onEar(hostR[port].HostR) {
				return false
			}
		}
	}
	if have != needConnecting {
		return false
	}
	return true
}

// StructuralProtocol wires the 3-round structural stage.
func StructuralProtocol(g *graph.Graph, p Params, plan *Plan) *dip.Protocol {
	return &dip.Protocol{
		Name:           "seriesparallel-structural",
		ProverRounds:   2,
		VerifierRounds: 1,
		NewProver:      func() dip.Prover { return &structProver{p: p, plan: plan, g: g} },
		Verifier:       structVerifier{p: p},
	}
}
