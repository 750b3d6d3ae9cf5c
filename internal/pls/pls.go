// Package pls implements the non-interactive baseline: the [FFM+21]-style
// proof labeling scheme for path-outerplanarity with Θ(log n)-bit labels
// and a deterministic one-round verifier. This is the comparison point
// for the paper's headline O(log log n) separation (experiment E11) and
// the substrate of the lower-bound experiments (E7).
//
// Labels: each node gets its exact position on the witness Hamiltonian
// path plus the endpoints of the innermost edge drawn strictly above it.
// Every condition the interactive protocol checks with random names is
// checked here directly on positions.
package pls

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/graph"
)

// Rounds is the declared interaction-round count: one prover round, no
// verifier randomness.
const Rounds = 1

// ProofSizeBound is the declared proof-size bound of the Theta(log n)
// baseline in bits: the exact honest label width, 3*PosBits + 1 with
// PosBits = ceil(log2 n). delta is unused.
func ProofSizeBound(n, delta int) int {
	return 3*NewParams(n).PosBits + 1
}

// Params fixes the position width. Honest labels need PosBits >=
// ceil(log2 n); the lower-bound experiments deliberately shrink it.
type Params struct {
	PosBits int
}

// NewParams returns the standard Θ(log n) parameterization.
func NewParams(n int) Params {
	b := bitio.BitsFor(n)
	if b < 1 {
		b = 1
	}
	return Params{PosBits: b}
}

// Label is the per-node certificate.
type Label struct {
	Pos uint64
	// HasAbove / AboveL / AboveR describe the innermost edge (l, r)
	// strictly covering this node (l < pos < r).
	HasAbove       bool
	AboveL, AboveR uint64
}

// Encode writes the label (1 + 3*PosBits bits).
func (l Label) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(l.Pos, p.PosBits)
	w.WriteBool(l.HasAbove)
	w.WriteUint(l.AboveL, p.PosBits)
	w.WriteUint(l.AboveR, p.PosBits)
	return w.String()
}

// DecodeLabel parses a label.
func DecodeLabel(s bitio.String, p Params) (Label, error) {
	r := s.Reader()
	var l Label
	var err error
	if l.Pos, err = r.ReadUint(p.PosBits); err != nil {
		return l, fmt.Errorf("pls: %w", err)
	}
	if l.HasAbove, err = r.ReadBool(); err != nil {
		return l, err
	}
	if l.AboveL, err = r.ReadUint(p.PosBits); err != nil {
		return l, err
	}
	if l.AboveR, err = r.ReadUint(p.PosBits); err != nil {
		return l, err
	}
	return l, nil
}

// HonestLabels computes the certificate for a path-outerplanar witness.
// Positions are truncated to PosBits (the lower-bound experiments exploit
// exactly this).
func HonestLabels(g *graph.Graph, pos []int, p Params) []Label {
	n := g.N()
	labels := make([]Label, n)
	at := make([]int, n)
	for v, q := range pos {
		at[q] = v
	}
	mask := uint64(1)<<uint(p.PosBits) - 1
	// Innermost strictly-covering interval per position, via a sweep.
	type iv struct{ l, r int }
	opensAt := make([][]iv, n)
	for _, e := range g.Edges() {
		l, r := pos[e.U], pos[e.V]
		if l > r {
			l, r = r, l
		}
		if r-l >= 2 {
			opensAt[l] = append(opensAt[l], iv{l, r})
		}
	}
	for q := range opensAt {
		sort.Slice(opensAt[q], func(a, b int) bool { return opensAt[q][a].r > opensAt[q][b].r })
	}
	var stack []iv
	for q := 0; q < n; q++ {
		for len(stack) > 0 && stack[len(stack)-1].r == q {
			stack = stack[:len(stack)-1]
		}
		v := at[q]
		labels[v].Pos = uint64(q) & mask
		if len(stack) > 0 && stack[len(stack)-1].l < q {
			top := stack[len(stack)-1]
			labels[v].HasAbove = true
			labels[v].AboveL = uint64(top.l) & mask
			labels[v].AboveR = uint64(top.r) & mask
		}
		stack = append(stack, opensAt[q]...)
	}
	return labels
}

// Verifier is the deterministic one-round verifier.
type Verifier struct {
	P Params
}

// Coins is unused: the scheme has no verifier randomness.
func (vf Verifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	return bitio.String{}
}

// Decide runs the positional checks at one node. The checks assume the
// standard full-width parameterization (PosBits >= log2 n, exact
// positions); the deliberately-truncated variants exist only as attack
// substrate for the lower-bound experiments.
func (vf Verifier) Decide(view *dip.View) bool {
	own, err := DecodeLabel(view.Own(0), vf.P)
	if err != nil {
		return false
	}
	nbr := make([]Label, view.Deg())
	for port := range nbr {
		if nbr[port], err = DecodeLabel(view.Nbr(port, 0), vf.P); err != nil {
			return false
		}
	}
	pos := int64(own.Pos)

	var left, right *Label
	var chords []Label
	for port := range nbr {
		l := nbr[port]
		switch int64(l.Pos) {
		case pos - 1:
			if left == nil {
				left = &nbr[port]
				continue
			}
			return false
		case pos + 1:
			if right == nil {
				right = &nbr[port]
				continue
			}
			return false
		case pos:
			return false
		default:
			chords = append(chords, l)
		}
	}

	// Above-interval sanity and chord containment.
	if own.HasAbove {
		if !(int64(own.AboveL) < pos && pos < int64(own.AboveR)) {
			return false
		}
	}
	var shortestRight, shortestLeft int64 = -1, -1
	for _, c := range chords {
		q := int64(c.Pos)
		if q > pos {
			if q-pos < 2 {
				return false
			}
			if shortestRight == -1 || q < shortestRight {
				shortestRight = q
			}
			if own.HasAbove && q > int64(own.AboveR) {
				return false
			}
		} else {
			if pos-q < 2 {
				return false
			}
			if shortestLeft == -1 || q > shortestLeft {
				shortestLeft = q
			}
			if own.HasAbove && q < int64(own.AboveL) {
				return false
			}
		}
	}

	// Gap condition toward the right neighbor: the innermost interval
	// above it is this node's shortest right chord when one exists.
	if right != nil && shortestRight != -1 {
		if !right.HasAbove || int64(right.AboveL) != pos || int64(right.AboveR) != shortestRight {
			return false
		}
	}
	// Gap condition toward the left neighbor, mirrored.
	if left != nil && shortestLeft != -1 {
		if !left.HasAbove || int64(left.AboveR) != pos || int64(left.AboveL) != shortestLeft {
			return false
		}
	}
	// Carry-over: with no left chords, the covering interval either
	// continues from the left neighbor or starts exactly there.
	if left != nil && shortestLeft == -1 {
		same := own.HasAbove == left.HasAbove && own.AboveL == left.AboveL && own.AboveR == left.AboveR
		startsHere := own.HasAbove && int64(own.AboveL) == pos-1
		if !same && !startsHere {
			return false
		}
	}
	// Path ends carry no chords pointing outward.
	if right == nil && shortestRight != -1 {
		return false
	}
	if left == nil && shortestLeft != -1 {
		return false
	}
	return true
}

// Protocol wires the 1-round PLS.
func Protocol(g *graph.Graph, pos []int, p Params) *dip.Protocol {
	return &dip.Protocol{
		Name:           "pls-path-outerplanarity",
		ProverRounds:   Rounds,
		VerifierRounds: 0,
		NewProver: func() dip.Prover {
			return proverFunc(func(round int, coins [][]bitio.String) (*dip.Assignment, error) {
				labels := HonestLabels(g, pos, p)
				a := dip.NewAssignment(g)
				for v := 0; v < g.N(); v++ {
					a.Node[v] = labels[v].Encode(p)
				}
				return a, nil
			})
		},
		Verifier: Verifier{P: p},
	}
}

type proverFunc func(int, [][]bitio.String) (*dip.Assignment, error)

func (f proverFunc) Round(r int, c [][]bitio.String) (*dip.Assignment, error) { return f(r, c) }
