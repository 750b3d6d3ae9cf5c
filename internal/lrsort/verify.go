package lrsort

// NbrLabels bundles the decoded per-round node labels of a path neighbor.
type NbrLabels struct {
	R1 Round1Node
	R2 Round2Node
	R3 Round3Node
}

// EdgeView is one incident non-path edge as the node sees it.
type EdgeView struct {
	// Out reports whether this node is the tail (the edge claims
	// this-node < other-endpoint).
	Out bool
	R1  Round1Edge
	R2  Round2Edge
	// Nbr is the other endpoint's labels.
	Nbr *NbrLabels
}

// NodeView is everything one node consults in the LR-sorting decision.
// Composite protocols assemble it from their own label layouts; the
// standalone protocol assembles it from the engine's view.
type NodeView struct {
	R1 Round1Node
	R2 Round2Node
	R3 Round3Node
	C1 CoinsV1
	C2 CoinsV2
	// HasLeft/HasRight report the directed path neighbors (input).
	HasLeft, HasRight bool
	Left, Right       *NbrLabels
	Edges             []EdgeView
}

// CheckNode runs the complete local verification of the LR-sorting
// protocol at one node and returns its accept/reject output.
func CheckNode(p Params, v *NodeView) bool {
	r1 := v.R1
	B := p.B

	// --- Block structure ---------------------------------------------
	if r1.J < 0 || r1.J > 2*B-1 {
		return false
	}
	if !v.HasLeft && r1.J != 0 {
		return false
	}
	if r1.J > 0 {
		if !v.HasLeft || v.Left.R1.J != r1.J-1 {
			return false
		}
	}
	if r1.J == 0 && v.HasLeft {
		// The previous block has a successor, so it must be exactly full.
		if v.Left.R1.J != B-1 {
			return false
		}
	}
	if v.HasRight {
		if v.Right.R1.J != r1.J+1 && v.Right.R1.J != 0 {
			return false
		}
		if v.Right.R1.J == 0 && r1.J != B-1 {
			return false
		}
	} else {
		// Path end: the last block holds at least B nodes.
		if r1.J < B-1 {
			return false
		}
	}
	blockRightmost := !v.HasRight || v.Right.R1.J == 0
	leftInBlock := r1.J > 0 // left path neighbor is in the same block
	rightInBlock := v.HasRight && v.Right.R1.J == r1.J+1

	// --- Consecutive numbers (vb flags) ------------------------------
	if r1.J < B {
		switch r1.VB {
		case VBRight:
			if !r1.X1Bit || r1.X2Bit {
				return false
			}
			if rightInBlock && v.Right.R1.J < B && v.Right.R1.VB != VBRight {
				return false
			}
		case VBAt:
			if r1.X1Bit || !r1.X2Bit {
				return false
			}
			if rightInBlock && v.Right.R1.J < B && v.Right.R1.VB != VBRight {
				return false
			}
			if leftInBlock && v.Left.R1.VB != VBLeft {
				return false
			}
		case VBLeft:
			if r1.X1Bit != r1.X2Bit {
				return false
			}
			if leftInBlock && v.Left.R1.VB != VBLeft {
				return false
			}
		default:
			return false
		}
		// The least significant bit always changes when adding one.
		if r1.J == B-1 && r1.VB == VBLeft {
			return false
		}
	}

	// --- Randomness echoes --------------------------------------------
	r2 := v.R2
	if v.HasLeft {
		if v.Left.R2.REcho != r2.REcho || v.Left.R2.RPEcho != r2.RPEcho {
			return false
		}
	} else {
		// Path head anchors r and r' to its own coins.
		if r2.REcho != v.C1.R%p.F0.P || r2.RPEcho != v.C1.RP%p.F0.P {
			return false
		}
	}
	if v.HasRight {
		if v.Right.R2.REcho != r2.REcho || v.Right.R2.RPEcho != r2.RPEcho {
			return false
		}
	}
	if leftInBlock {
		if v.Left.R2.RBEcho != r2.RBEcho {
			return false
		}
	} else if r1.J == 0 {
		if r2.RBEcho != v.C1.RB%p.F0.P {
			return false
		}
	}
	if rightInBlock && v.Right.R2.RBEcho != r2.RBEcho {
		return false
	}
	r3 := v.R3
	if leftInBlock {
		if v.Left.R3.Z0Echo != r3.Z0Echo || v.Left.R3.Z1Echo != r3.Z1Echo {
			return false
		}
	} else if r1.J == 0 {
		if r3.Z0Echo != v.C2.Z0%p.F1.P || r3.Z1Echo != v.C2.Z1%p.F1.P {
			return false
		}
	}

	// --- Polynomial chains ---------------------------------------------
	prevChain1, prevChain2, prevPref := uint64(1), uint64(1), uint64(1)
	if leftInBlock {
		prevChain1 = v.Left.R2.ChainX1
		prevChain2 = v.Left.R2.ChainX2
		prevPref = v.Left.R2.PrefPos
	}
	if r1.J < B {
		i := uint64(r1.J + 1)
		want1, want2, wantP := prevChain1, prevChain2, prevPref
		if r1.X1Bit {
			want1 = p.F0.Mul(want1, p.F0.Sub(i, r2.REcho))
			wantP = p.F0.Mul(wantP, p.F0.Sub(i, r2.RPEcho))
		}
		if r1.X2Bit {
			want2 = p.F0.Mul(want2, p.F0.Sub(i, r2.REcho))
		}
		if r2.ChainX1 != want1 || r2.ChainX2 != want2 || r2.PrefPos != wantP {
			return false
		}
	} else {
		if r2.ChainX1 != prevChain1 || r2.ChainX2 != prevChain2 || r2.PrefPos != prevPref {
			return false
		}
	}
	// Broadcast of the full x1 product.
	if leftInBlock && v.Left.R2.BcastX1 != r2.BcastX1 {
		return false
	}
	if rightInBlock && v.Right.R2.BcastX1 != r2.BcastX1 {
		return false
	}
	if blockRightmost && r2.ChainX1 != r2.BcastX1 {
		return false
	}
	// Adjacent-block position consistency: x2(b) must equal x1(b') as a
	// multiset of bit indices, compared at the shared random point r.
	if r1.J == 0 && v.HasLeft {
		if v.Left.R2.ChainX2 != r2.BcastX1 {
			return false
		}
	}

	// --- Edge commitments ----------------------------------------------
	type seenPair struct {
		j   uint64
		in  bool
		out bool
	}
	pairs := map[int]seenPair{}
	for _, e := range v.Edges {
		if e.R1.Inner {
			// Inner-block edge: in-block order plus nonce equality.
			var tailJ, headJ int
			if e.Out {
				tailJ, headJ = r1.J, e.Nbr.R1.J
			} else {
				tailJ, headJ = e.Nbr.R1.J, r1.J
			}
			if tailJ >= headJ {
				return false
			}
			if e.Nbr.R2.RBEcho != r2.RBEcho {
				return false
			}
			continue
		}
		i := e.R1.Index
		if i < 1 || i > B {
			return false
		}
		sp, seen := pairs[i]
		if !seen {
			sp = seenPair{j: e.R2.JVal}
		} else if sp.j != e.R2.JVal {
			return false
		}
		if e.Out {
			sp.out = true
		} else {
			sp.in = true
		}
		if sp.in && sp.out {
			// The same index cannot require the block bit to be both 0
			// (outgoing) and 1 (incoming).
			return false
		}
		pairs[i] = sp
	}

	// --- Verification-scheme aggregation -------------------------------
	prevC0, prevD0, prevC1, prevD1 := uint64(1), uint64(1), uint64(1), uint64(1)
	if leftInBlock {
		prevC0 = v.Left.R3.AggC0
		prevD0 = v.Left.R3.AggD0
		prevC1 = v.Left.R3.AggC1
		prevD1 = v.Left.R3.AggD1
	}
	wantC0, wantC1 := prevC0, prevC1
	for i, sp := range pairs {
		enc := p.EncPair(i, sp.j%p.F0.P)
		if sp.out {
			wantC0 = p.F1.Mul(wantC0, p.F1.Sub(enc, r3.Z0Echo))
		} else {
			wantC1 = p.F1.Mul(wantC1, p.F1.Sub(enc, r3.Z1Echo))
		}
	}
	wantD0, wantD1 := prevD0, prevD1
	if r1.J < B {
		enc := p.EncPair(r1.J+1, prevPref)
		if r1.X1Bit {
			wantD1 = p.F1.Mul(wantD1, p.F1.Pow(p.F1.Sub(enc, r3.Z1Echo), uint64(r1.M1)))
		} else {
			wantD0 = p.F1.Mul(wantD0, p.F1.Pow(p.F1.Sub(enc, r3.Z0Echo), uint64(r1.M0)))
		}
	}
	if r3.AggC0 != wantC0 || r3.AggC1 != wantC1 || r3.AggD0 != wantD0 || r3.AggD1 != wantD1 {
		return false
	}
	if blockRightmost {
		if r3.AggC0 != r3.AggD0 || r3.AggC1 != r3.AggD1 {
			return false
		}
	}
	return true
}
