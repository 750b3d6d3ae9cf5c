package lrsort

import (
	"fmt"

	"repro/internal/bitio"
)

// VBFlag locates a node relative to the marked least-significant-zero bit
// of its block's position (the consecutive-numbers proof).
type VBFlag uint8

const (
	// VBNone marks nodes that hold no position bit (in-block index >= B).
	VBNone VBFlag = iota
	// VBLeft marks bit holders left of (more significant than) the vb bit.
	VBLeft
	// VBAt marks the vb bit itself: x1 has 0, x2 has 1.
	VBAt
	// VBRight marks bit holders right of vb: x1 has 1, x2 has 0.
	VBRight
)

// Round1Node is the structural commitment the prover sends every node in
// round 1: the in-block index, the node's bits of pos(b) and pos(b)+1,
// the vb flag, and the two multiplicity counters used by the verification
// scheme.
type Round1Node struct {
	J      int // in-block index, 0-based
	X1Bit  bool
	X2Bit  bool
	VB     VBFlag
	M0, M1 int
}

// Encode writes the round-1 node label.
func (l Round1Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(uint64(l.J), p.JBits)
	w.WriteBool(l.X1Bit)
	w.WriteBool(l.X2Bit)
	w.WriteUint(uint64(l.VB), 2)
	w.WriteUint(uint64(l.M0), p.MBits)
	w.WriteUint(uint64(l.M1), p.MBits)
	return w.String()
}

// DecodeRound1Node parses a round-1 node label.
func DecodeRound1Node(s bitio.String, p Params) (Round1Node, error) {
	return ReadRound1Node(s.Reader(), p)
}

// ReadRound1Node reads a round-1 node label in place from r, for labels
// that embed one; so do the other Read functions of this package.
func ReadRound1Node(r *bitio.Reader, p Params) (Round1Node, error) {
	j, err := r.ReadUint(p.JBits)
	if err != nil {
		return Round1Node{}, fmt.Errorf("lrsort: r1 node: %w", err)
	}
	x1, err := r.ReadBool()
	if err != nil {
		return Round1Node{}, err
	}
	x2, err := r.ReadBool()
	if err != nil {
		return Round1Node{}, err
	}
	vb, err := r.ReadUint(2)
	if err != nil {
		return Round1Node{}, err
	}
	m0, err := r.ReadUint(p.MBits)
	if err != nil {
		return Round1Node{}, err
	}
	m1, err := r.ReadUint(p.MBits)
	if err != nil {
		return Round1Node{}, err
	}
	return Round1Node{
		J: int(j), X1Bit: x1, X2Bit: x2, VB: VBFlag(vb),
		M0: int(m0), M1: int(m1),
	}, nil
}

// Round1Edge classifies a non-path edge and, for outer-block edges,
// commits to the claimed distinguishing index.
type Round1Edge struct {
	Inner bool
	Index int // distinguishing index in [1..B]; 0 when Inner
}

// Encode writes the round-1 edge label.
func (l Round1Edge) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteBool(l.Inner)
	w.WriteUint(uint64(l.Index), p.JBits)
	return w.String()
}

// DecodeRound1Edge parses a round-1 edge label.
func DecodeRound1Edge(s bitio.String, p Params) (Round1Edge, error) {
	return ReadRound1Edge(s.Reader(), p)
}

// ReadRound1Edge reads a round-1 edge label in place from r.
func ReadRound1Edge(r *bitio.Reader, p Params) (Round1Edge, error) {
	inner, err := r.ReadBool()
	if err != nil {
		return Round1Edge{}, fmt.Errorf("lrsort: r1 edge: %w", err)
	}
	idx, err := r.ReadUint(p.JBits)
	if err != nil {
		return Round1Edge{}, err
	}
	return Round1Edge{Inner: inner, Index: int(idx)}, nil
}

// CoinsV1 is a node's public randomness after round 1: the path head's
// global points r and r' and the block head's nonce r_b. Every node
// samples all three; only the designated heads' draws are consumed.
type CoinsV1 struct {
	R, RP, RB uint64
}

// Encode writes the coins.
func (c CoinsV1) Encode(p Params) bitio.String {
	var w bitio.Writer
	b := p.F0Bits()
	w.WriteUint(c.R, b)
	w.WriteUint(c.RP, b)
	w.WriteUint(c.RB, b)
	return w.String()
}

// DecodeCoinsV1 parses the round-1 coins.
func DecodeCoinsV1(s bitio.String, p Params) (CoinsV1, error) {
	return ReadCoinsV1(s.Reader(), p)
}

// ReadCoinsV1 reads the round-1 coins in place from r.
func ReadCoinsV1(r *bitio.Reader, p Params) (CoinsV1, error) {
	b := p.F0Bits()
	var c CoinsV1
	var err error
	if c.R, err = r.ReadUint(b); err != nil {
		return c, fmt.Errorf("lrsort: coins v1: %w", err)
	}
	if c.RP, err = r.ReadUint(b); err != nil {
		return c, err
	}
	if c.RB, err = r.ReadUint(b); err != nil {
		return c, err
	}
	return c, nil
}

// Round2Node carries the echoed randomness and the position-polynomial
// chain values.
type Round2Node struct {
	REcho   uint64 // echo of the global point r
	RPEcho  uint64 // echo of the global point r'
	RBEcho  uint64 // echo of the block nonce r_b
	ChainX1 uint64 // prefix product of (t - r) over x1-bits set, t <= own index
	ChainX2 uint64 // same for x2
	BcastX1 uint64 // block-wide broadcast of the full x1 product at r
	PrefPos uint64 // prefix product of (t - r') over pos-bits set (phi^b_j)
}

// Encode writes the round-2 node label.
func (l Round2Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	b := p.F0Bits()
	w.WriteUint(l.REcho, b)
	w.WriteUint(l.RPEcho, b)
	w.WriteUint(l.RBEcho, b)
	w.WriteUint(l.ChainX1, b)
	w.WriteUint(l.ChainX2, b)
	w.WriteUint(l.BcastX1, b)
	w.WriteUint(l.PrefPos, b)
	return w.String()
}

// DecodeRound2Node parses a round-2 node label.
func DecodeRound2Node(s bitio.String, p Params) (Round2Node, error) {
	return ReadRound2Node(s.Reader(), p)
}

// ReadRound2Node reads a round-2 node label in place from r.
func ReadRound2Node(r *bitio.Reader, p Params) (Round2Node, error) {
	b := p.F0Bits()
	var l Round2Node
	fields := []*uint64{&l.REcho, &l.RPEcho, &l.RBEcho, &l.ChainX1, &l.ChainX2, &l.BcastX1, &l.PrefPos}
	for _, f := range fields {
		v, err := r.ReadUint(b)
		if err != nil {
			return l, fmt.Errorf("lrsort: r2 node: %w", err)
		}
		*f = v
	}
	return l, nil
}

// Round2Edge carries the committed prefix-polynomial value of an
// outer-block edge (the j of the pair rho(e) = (i, j)).
type Round2Edge struct {
	JVal uint64
}

// Encode writes the round-2 edge label.
func (l Round2Edge) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(l.JVal, p.F0Bits())
	return w.String()
}

// DecodeRound2Edge parses a round-2 edge label.
func DecodeRound2Edge(s bitio.String, p Params) (Round2Edge, error) {
	return ReadRound2Edge(s.Reader(), p)
}

// ReadRound2Edge reads a round-2 edge label in place from r.
func ReadRound2Edge(r *bitio.Reader, p Params) (Round2Edge, error) {
	v, err := r.ReadUint(p.F0Bits())
	if err != nil {
		return Round2Edge{}, fmt.Errorf("lrsort: r2 edge: %w", err)
	}
	return Round2Edge{JVal: v}, nil
}

// CoinsV2 is a node's round-2 randomness: the two in-block multiset
// evaluation points, consumed only at block heads.
type CoinsV2 struct {
	Z0, Z1 uint64
}

// Encode writes the coins.
func (c CoinsV2) Encode(p Params) bitio.String {
	var w bitio.Writer
	b := p.F1Bits()
	w.WriteUint(c.Z0, b)
	w.WriteUint(c.Z1, b)
	return w.String()
}

// DecodeCoinsV2 parses the round-2 coins.
func DecodeCoinsV2(s bitio.String, p Params) (CoinsV2, error) {
	r := s.Reader()
	b := p.F1Bits()
	var c CoinsV2
	var err error
	if c.Z0, err = r.ReadUint(b); err != nil {
		return c, fmt.Errorf("lrsort: coins v2: %w", err)
	}
	if c.Z1, err = r.ReadUint(b); err != nil {
		return c, err
	}
	return c, nil
}

// Round3Node carries the echoes of z0/z1 and the four aggregation chains
// of the verification scheme: the C-side and D-side products for the
// bit-0 and bit-1 checks.
type Round3Node struct {
	Z0Echo, Z1Echo uint64
	AggC0, AggD0   uint64
	AggC1, AggD1   uint64
}

// Encode writes the round-3 node label.
func (l Round3Node) Encode(p Params) bitio.String {
	var w bitio.Writer
	b := p.F1Bits()
	for _, v := range []uint64{l.Z0Echo, l.Z1Echo, l.AggC0, l.AggD0, l.AggC1, l.AggD1} {
		w.WriteUint(v, b)
	}
	return w.String()
}

// DecodeRound3Node parses a round-3 node label.
func DecodeRound3Node(s bitio.String, p Params) (Round3Node, error) {
	r := s.Reader()
	b := p.F1Bits()
	var l Round3Node
	fields := []*uint64{&l.Z0Echo, &l.Z1Echo, &l.AggC0, &l.AggD0, &l.AggC1, &l.AggD1}
	for _, f := range fields {
		v, err := r.ReadUint(b)
		if err != nil {
			return l, fmt.Errorf("lrsort: r3 node: %w", err)
		}
		*f = v
	}
	return l, nil
}
