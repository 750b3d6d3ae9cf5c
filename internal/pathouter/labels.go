package pathouter

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/forestcode"
	"repro/internal/lrsort"
	"repro/internal/spantree"
)

// Name identifies a non-path edge by the random strings of its endpoints
// (s_tail, s_head), or the virtual edge (Virtual), whose name is the
// designated bottom symbol.
type Name struct {
	Virtual bool
	A, B    uint64 // s_tail, s_head
}

func (nm Name) encode(w *bitio.Writer, p Params) {
	w.WriteBool(nm.Virtual)
	if nm.Virtual {
		w.WriteUint(0, 2*p.NameBits())
		return
	}
	w.WriteUint(nm.A, p.NameBits())
	w.WriteUint(nm.B, p.NameBits())
}

func decodeName(r *bitio.Reader, p Params) (Name, error) {
	v, err := r.ReadBool()
	if err != nil {
		return Name{}, err
	}
	a, err := r.ReadUint(p.NameBits())
	if err != nil {
		return Name{}, err
	}
	b, err := r.ReadUint(p.NameBits())
	if err != nil {
		return Name{}, err
	}
	if v {
		return Name{Virtual: true}, nil
	}
	return Name{A: a, B: b}, nil
}

// Round1Node is the first prover message at a node: the forest code of
// the committed Hamiltonian path plus the LR-sorting block structure.
type Round1Node struct {
	FC forestcode.Label
	LR lrsort.Round1Node
}

// Encode writes the round-1 node label.
func (l Round1Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteString(l.FC.Encode())
	w.WriteString(l.LR.Encode(p.LR))
	return w.String()
}

// DecodeRound1Node parses a round-1 node label. Like every decoder of
// this package it reads the embedded sub-labels in place, from its own
// reader.
func DecodeRound1Node(s bitio.String, p Params) (Round1Node, error) {
	r := s.Reader()
	fc, err := forestcode.ReadLabel(r)
	if err != nil {
		return Round1Node{}, fmt.Errorf("pathouter: r1 node: %w", err)
	}
	lr, err := lrsort.ReadRound1Node(r, p.LR)
	if err != nil {
		return Round1Node{}, err
	}
	return Round1Node{FC: fc, LR: lr}, nil
}

// Round1Edge is the first prover message on a non-path edge: the claimed
// orientation, the LR-sorting classification, and the longest-edge marks
// of the nesting stage.
type Round1Edge struct {
	// TailIsCanonU: the edge is directed from Canon(u,v).U to .V.
	TailIsCanonU bool
	LR           lrsort.Round1Edge
	// LongestTailRight marks this edge as the longest right edge of its
	// tail; LongestHeadLeft as the longest left edge of its head.
	LongestTailRight bool
	LongestHeadLeft  bool
}

// Encode writes the round-1 edge label.
func (l Round1Edge) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteBool(l.TailIsCanonU)
	w.WriteString(l.LR.Encode(p.LR))
	w.WriteBool(l.LongestTailRight)
	w.WriteBool(l.LongestHeadLeft)
	return w.String()
}

// DecodeRound1Edge parses a round-1 edge label.
func DecodeRound1Edge(s bitio.String, p Params) (Round1Edge, error) {
	r := s.Reader()
	t, err := r.ReadBool()
	if err != nil {
		return Round1Edge{}, fmt.Errorf("pathouter: r1 edge: %w", err)
	}
	lr, err := lrsort.ReadRound1Edge(r, p.LR)
	if err != nil {
		return Round1Edge{}, err
	}
	ltr, err := r.ReadBool()
	if err != nil {
		return Round1Edge{}, err
	}
	lhl, err := r.ReadBool()
	if err != nil {
		return Round1Edge{}, err
	}
	return Round1Edge{TailIsCanonU: t, LR: lr, LongestTailRight: ltr, LongestHeadLeft: lhl}, nil
}

// CoinsV1 is a node's first public randomness: spanning-tree coins, the
// LR-sorting points, and the nesting name s_v.
type CoinsV1 struct {
	ST   spantree.Coin
	LR   lrsort.CoinsV1
	Name uint64
}

// Encode writes the coins.
func (c CoinsV1) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteString(c.ST.Encode(p.ST))
	w.WriteString(c.LR.Encode(p.LR))
	w.WriteUint(c.Name, p.NameBits())
	return w.String()
}

// DecodeCoinsV1 parses the round-1 coins.
func DecodeCoinsV1(s bitio.String, p Params) (CoinsV1, error) {
	r := s.Reader()
	st, err := spantree.ReadCoin(r, p.ST)
	if err != nil {
		return CoinsV1{}, fmt.Errorf("pathouter: coins: %w", err)
	}
	lr, err := lrsort.ReadCoinsV1(r, p.LR)
	if err != nil {
		return CoinsV1{}, err
	}
	nm, err := r.ReadUint(p.NameBits())
	if err != nil {
		return CoinsV1{}, err
	}
	return CoinsV1{ST: st, LR: lr, Name: nm}, nil
}

// Round2Node is the second prover message at a node: spanning-tree sums,
// LR-sorting chains, the side flags, and the above label of the nesting
// stage.
type Round2Node struct {
	ST spantree.Sum
	LR lrsort.Round2Node
	// HasRightEdges/HasLeftEdges announce whether the node is incident on
	// any right (outgoing) / left (incoming) non-path edges; each node
	// checks its own flags deterministically, and neighbors consume them
	// for the cross-gap conditions (4)/(5).
	HasRightEdges bool
	HasLeftEdges  bool
	Above         Name
}

// Encode writes the round-2 node label.
func (l Round2Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteString(l.ST.Encode(p.ST))
	w.WriteString(l.LR.Encode(p.LR))
	w.WriteBool(l.HasRightEdges)
	w.WriteBool(l.HasLeftEdges)
	l.Above.encode(&w, p)
	return w.String()
}

// DecodeRound2Node parses a round-2 node label.
func DecodeRound2Node(s bitio.String, p Params) (Round2Node, error) {
	r := s.Reader()
	st, err := spantree.ReadSum(r, p.ST)
	if err != nil {
		return Round2Node{}, fmt.Errorf("pathouter: r2 node: %w", err)
	}
	lr, err := lrsort.ReadRound2Node(r, p.LR)
	if err != nil {
		return Round2Node{}, err
	}
	hr, err := r.ReadBool()
	if err != nil {
		return Round2Node{}, err
	}
	hl, err := r.ReadBool()
	if err != nil {
		return Round2Node{}, err
	}
	ab, err := decodeName(r, p)
	if err != nil {
		return Round2Node{}, err
	}
	return Round2Node{ST: st, LR: lr, HasRightEdges: hr, HasLeftEdges: hl, Above: ab}, nil
}

// Round2Edge is the second prover message on a non-path edge: the
// LR-sorting commitment plus the edge's name and its successor's name.
type Round2Edge struct {
	LR   lrsort.Round2Edge
	Name Name
	Succ Name
}

// Encode writes the round-2 edge label.
func (l Round2Edge) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteString(l.LR.Encode(p.LR))
	l.Name.encode(&w, p)
	l.Succ.encode(&w, p)
	return w.String()
}

// DecodeRound2Edge parses a round-2 edge label.
func DecodeRound2Edge(s bitio.String, p Params) (Round2Edge, error) {
	r := s.Reader()
	lr, err := lrsort.ReadRound2Edge(r, p.LR)
	if err != nil {
		return Round2Edge{}, fmt.Errorf("pathouter: r2 edge: %w", err)
	}
	nm, err := decodeName(r, p)
	if err != nil {
		return Round2Edge{}, err
	}
	sc, err := decodeName(r, p)
	if err != nil {
		return Round2Edge{}, err
	}
	return Round2Edge{LR: lr, Name: nm, Succ: sc}, nil
}
