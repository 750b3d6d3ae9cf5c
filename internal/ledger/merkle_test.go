package ledger

import (
	"fmt"
	"testing"
)

func testEntry(i int) Entry {
	return Entry{
		Seq:           uint64(i + 1),
		Key:           fmt.Sprintf("key-%04d", i),
		Protocol:      "planarity",
		Nodes:         4 + i,
		Edges:         6 + i,
		Seed:          int64(i),
		Accepted:      i%3 != 0,
		Rounds:        5,
		ProofSizeBits: 128 + i,
		Fingerprint:   fmt.Sprintf("%016x", 0xdead0000+i),
		UnixNS:        int64(1000 + i),
	}
}

// TestMerkleProofAllSizes: for every batch size 1..17 and every leaf,
// the inclusion proof folds to the root, and proof length is
// logarithmic.
func TestMerkleProofAllSizes(t *testing.T) {
	for n := 1; n <= 17; n++ {
		leaves := make([][32]byte, n)
		for i := range leaves {
			e := testEntry(i)
			leaves[i] = e.LeafHash()
		}
		root := Root(leaves)
		for i := 0; i < n; i++ {
			steps := ProofFor(leaves, i)
			if got := Fold(leaves[i], steps); got != root {
				t.Fatalf("n=%d leaf %d: proof folds to %s, root %s", n, i, hx(got), hx(root))
			}
			if n > 1 && len(steps) == 0 {
				t.Fatalf("n=%d leaf %d: empty proof", n, i)
			}
			if len(steps) > 5 { // ceil(log2(17)) = 5
				t.Fatalf("n=%d leaf %d: proof has %d steps", n, i, len(steps))
			}
		}
	}
}

// TestMerkleProofRejectsTamper: flipping any field of the proven entry
// breaks the fold.
func TestMerkleProofRejectsTamper(t *testing.T) {
	leaves := make([][32]byte, 8)
	entries := make([]Entry, 8)
	for i := range leaves {
		entries[i] = testEntry(i)
		leaves[i] = entries[i].LeafHash()
	}
	p := Proof{
		Entry:      entries[3],
		BatchIndex: 0,
		LeafIndex:  3,
		Siblings:   ProofFor(leaves, 3),
		Root:       Root(leaves),
		PrevChain:  GenesisChain(),
	}
	p.Chain = ChainLink(p.PrevChain, p.Root, 0)
	if err := p.Verify(); err != nil {
		t.Fatalf("honest proof rejected: %v", err)
	}
	mutations := map[string]func(*Proof){
		"verdict flip":      func(p *Proof) { p.Entry.Accepted = !p.Entry.Accepted },
		"seed":              func(p *Proof) { p.Entry.Seed++ },
		"fingerprint":       func(p *Proof) { p.Entry.Fingerprint = "0000000000000000" },
		"proof size":        func(p *Proof) { p.Entry.ProofSizeBits++ },
		"timestamp":         func(p *Proof) { p.Entry.UnixNS++ },
		"wrong leaf index":  func(p *Proof) { p.Siblings = ProofFor(leaves, 4) },
		"chain batch index": func(p *Proof) { p.BatchIndex = 1 },
	}
	for name, mutate := range mutations {
		q := p
		q.Siblings = append([]ProofStep(nil), p.Siblings...)
		mutate(&q)
		if err := q.Verify(); err == nil {
			t.Errorf("%s: tampered proof verified", name)
		}
	}
}

// TestProofJSONRoundTrip: wire form round-trips to an equivalent,
// verifying proof.
func TestProofJSONRoundTrip(t *testing.T) {
	leaves := make([][32]byte, 5)
	entries := make([]Entry, 5)
	for i := range leaves {
		entries[i] = testEntry(i)
		leaves[i] = entries[i].LeafHash()
	}
	p := Proof{
		Entry:      entries[2],
		BatchIndex: 7,
		LeafIndex:  2,
		Siblings:   ProofFor(leaves, 2),
		Root:       Root(leaves),
		PrevChain:  GenesisChain(),
	}
	p.Chain = ChainLink(p.PrevChain, p.Root, 7)
	back, err := p.JSON().Proof(p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Verify(); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
	if back.JSON().LeafHash != hx(p.Entry.LeafHash()) {
		t.Fatal("leaf hash diverged through the wire form")
	}
}

// TestVerifyRootChain: honest chains verify from any starting batch;
// broken links, gaps, and reordered roots are rejected.
func TestVerifyRootChain(t *testing.T) {
	prev := GenesisChain()
	var records []RootRecord
	for i := 0; i < 6; i++ {
		root := testEntry(i).LeafHash() // any 32 bytes serve as a root
		chain := ChainLink(prev, root, i)
		records = append(records, RootRecord{
			Index: i, Entries: 1, Root: hx(root), PrevChain: hx(prev), Chain: hx(chain),
		})
		prev = chain
	}
	head, err := VerifyRootChain(records)
	if err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}
	if hx(head) != records[5].Chain {
		t.Fatal("head is not the last chain value")
	}
	// Any contiguous suffix verifies too (that is what dipcert fetches).
	if _, err := VerifyRootChain(records[3:]); err != nil {
		t.Fatalf("suffix rejected: %v", err)
	}
	bad := append([]RootRecord(nil), records...)
	bad[2].Root = bad[3].Root
	if _, err := VerifyRootChain(bad); err == nil {
		t.Error("swapped root accepted")
	}
	gap := append([]RootRecord(nil), records[:2]...)
	gap = append(gap, records[3:]...)
	if _, err := VerifyRootChain(gap); err == nil {
		t.Error("gapped chain accepted")
	}
	if _, err := VerifyRootChain(nil); err == nil {
		t.Error("empty chain accepted")
	}
}

// TestCheckLeafSides: for every batch size 1..17, the proof of leaf i
// fits its root record, and claims leaf j ≠ i in vain even when the
// entry's Seq is shifted to agree with j — the step sides ProofFor
// gives differ from leaf to leaf of one batch.
func TestCheckLeafSides(t *testing.T) {
	for n := 1; n <= 17; n++ {
		leaves := make([][32]byte, n)
		for i := range leaves {
			e := testEntry(i)
			leaves[i] = e.LeafHash()
		}
		rec := RootRecord{Index: 0, Entries: n, FirstSeq: testEntry(0).Seq}
		for i := 0; i < n; i++ {
			p := Proof{Entry: testEntry(i), LeafIndex: i, Siblings: ProofFor(leaves, i)}
			if err := p.CheckLeaf(rec); err != nil {
				t.Fatalf("n=%d leaf %d: honest proof rejected: %v", n, i, err)
			}
			for j := 0; j < n; j++ {
				q := p
				q.LeafIndex, q.Entry.Seq = j, rec.FirstSeq+uint64(j)
				if err := q.CheckLeaf(rec); j != i && err == nil {
					t.Fatalf("n=%d: the proof of leaf %d fits leaf %d", n, i, j)
				}
			}
		}
	}
}
