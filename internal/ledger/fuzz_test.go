package ledger

import (
	"slices"
	"testing"
)

// FuzzInclusionProof builds a sealed batch of 1–64 entries, behind 0–3
// earlier batches, through the ledger itself and proves one leaf. The
// honest proof must verify, directly and after a ProofJSON round trip,
// and fit its batch's root record (CheckLeaf). Then one mutation chosen
// by the input — an entry field, a sibling's hash or side, a dropped or
// added step, Root, PrevChain, BatchIndex, Chain or LeafIndex — must
// make Verify or CheckLeaf fail whenever it changed a value. Verify
// alone never reads LeafIndex: CheckLeaf is what catches a changed one.
func FuzzInclusionProof(f *testing.F) {
	f.Add(uint8(7), uint8(3), uint8(1), uint8(0), uint64(5), "x")
	f.Add(uint8(0), uint8(0), uint8(0), uint8(4), uint64(1), "")
	f.Add(uint8(63), uint8(62), uint8(3), uint8(2), uint64(1<<40), "key-0001")
	f.Add(uint8(4), uint8(3), uint8(0), uint8(10), uint64(5), "") // leaf 3 of 5 claims leaf 4
	f.Fuzz(func(t *testing.T, size, leaf, before, op uint8, val uint64, text string) {
		k := 1 + int(size)%64
		l, err := Open(NewMemStore(), Config{BatchSize: k, Now: fixedClock()})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		total := (int(before)%4 + 1) * k
		for i := 0; i < total; i++ {
			if _, _, err := l.Append(testEntry(i)); err != nil {
				t.Fatal(err)
			}
		}
		p, err := l.Proof(testEntry(total - k + int(leaf)%k).Key)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("honest proof rejected: %v", err)
		}
		back, err := p.JSON().Proof(p.Entry)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.Verify(); err != nil {
			t.Fatalf("round-tripped proof rejected: %v", err)
		}
		rec := l.Roots(p.BatchIndex)[0]
		if err := back.CheckLeaf(rec); err != nil {
			t.Fatalf("honest proof does not fit its root record: %v", err)
		}

		q := *p
		q.Siblings = slices.Clone(p.Siblings)
		changed := mutateProof(&q, op, val, text)
		if changed != proofChanged(p, &q) {
			t.Fatalf("mutation %d reported changed=%v", op%11, changed)
		}
		err = q.Verify()
		if err == nil {
			err = q.CheckLeaf(rec)
		}
		if changed && err == nil {
			t.Fatalf("mutation %d (val %d, text %q) left a verifying proof", op%11, val, text)
		}
	})
}

// mutateProof applies the mutation op selects, with val and text as
// its arguments, and reports whether it changed a value.
func mutateProof(p *Proof, op uint8, val uint64, text string) bool {
	bit := byte(1) << (val % 8)
	pos := int(val / 8 % 32)
	// at picks a step index, or a gap between steps when gaps is set.
	at := func(gaps bool) int {
		n := uint64(len(p.Siblings))
		if gaps {
			n++
		}
		return int(val % n)
	}
	switch op % 11 {
	case 0, 1:
		before := p.Entry
		mutateEntry(&p.Entry, val, text)
		return p.Entry != before
	case 2:
		if len(p.Siblings) == 0 {
			return false
		}
		p.Siblings[at(false)].Hash[pos] ^= bit
	case 3:
		if len(p.Siblings) == 0 {
			return false
		}
		st := &p.Siblings[at(false)]
		st.Right = !st.Right
	case 4:
		if len(p.Siblings) == 0 {
			return false
		}
		i := at(false)
		p.Siblings = slices.Delete(p.Siblings, i, i+1)
	case 5:
		var h [32]byte
		h[pos] = bit
		p.Siblings = slices.Insert(p.Siblings, at(true), ProofStep{Hash: h, Right: val%2 == 0})
	case 6:
		p.Root[pos] ^= bit
	case 7:
		p.PrevChain[pos] ^= bit
	case 8:
		old := p.BatchIndex
		p.BatchIndex = int(val % (1 << 31))
		return p.BatchIndex != old
	case 9:
		p.Chain[pos] ^= bit
	case 10:
		old := p.LeafIndex
		p.LeafIndex = int(val%128) - 1
		return p.LeafIndex != old
	}
	return true
}

// mutateEntry overwrites one field of e, chosen by val, with a value
// derived from val or text.
func mutateEntry(e *Entry, val uint64, text string) {
	v := val >> 4
	switch val % 14 {
	case 0:
		e.Seq = v
	case 1:
		e.Key = text
	case 2:
		e.Protocol = text
	case 3:
		e.Nodes = int(v)
	case 4:
		e.Edges = int(v)
	case 5:
		e.Seed = int64(v)
	case 6:
		e.Accepted = v%2 == 0
	case 7:
		e.ProverFailed = v%2 == 0
	case 8:
		e.Rounds = int(v)
	case 9:
		e.ProofSizeBits = int(v)
	case 10:
		e.TotalBits = int(v)
	case 11:
		e.MaxCoinBits = int(v)
	case 12:
		e.Fingerprint = text
	case 13:
		e.UnixNS = int64(v)
	}
}

// proofChanged reports whether q differs from p in any field Verify
// or CheckLeaf reads.
func proofChanged(p, q *Proof) bool {
	return p.Entry != q.Entry || p.BatchIndex != q.BatchIndex || p.LeafIndex != q.LeafIndex || p.Root != q.Root ||
		p.PrevChain != q.PrevChain || p.Chain != q.Chain || !slices.Equal(p.Siblings, q.Siblings)
}
