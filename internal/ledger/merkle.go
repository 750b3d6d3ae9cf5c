package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Merkle construction over one batch of leaf hashes, plus the
// cross-batch root chain. Odd nodes promote to the next level
// unchanged (no duplication), so a proof is at most ⌈log2 k⌉ sibling
// steps for a k-entry batch, each step tagged with the side the
// sibling sits on — folding a proof needs no knowledge of the batch
// size or leaf index arithmetic.

// nodeDomain and chainDomain separate inner-node and chain-link hashes
// from leaf hashes (leafDomain, entry.go).
const (
	nodeDomain  = "dipledger/node/v1\x00"
	chainDomain = "dipledger/chain/v1\x00"
	// genesisDomain seeds the chain before any batch is sealed.
	genesisDomain = "dipledger/genesis/v1"
)

// ProofStep is one sibling on the path from a leaf to its batch root.
// Right reports the sibling's side: true means the running hash is the
// left child (sibling concatenates on the right).
type ProofStep struct {
	Hash  [32]byte
	Right bool
}

func nodeHash(l, r [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(nodeDomain))
	h.Write(l[:])
	h.Write(r[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ChainLink folds a sealed batch root into the running chain:
// chain_i = H(chain_{i-1} || root_i || i) under the chain domain.
// Committing the index pins each root to its position, so batches
// cannot be reordered without breaking every later link.
func ChainLink(prev [32]byte, root [32]byte, index int) [32]byte {
	h := sha256.New()
	h.Write([]byte(chainDomain))
	h.Write(prev[:])
	h.Write(root[:])
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(index))
	h.Write(buf[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// GenesisChain is the chain value before batch 0 seals.
func GenesisChain() [32]byte {
	return sha256.Sum256([]byte(genesisDomain))
}

// levelUp hashes one Merkle level into the next: adjacent pairs are
// combined, an unpaired trailing node promotes unchanged.
func levelUp(nodes [][32]byte) [][32]byte {
	next := make([][32]byte, 0, (len(nodes)+1)/2)
	for i := 0; i+1 < len(nodes); i += 2 {
		next = append(next, nodeHash(nodes[i], nodes[i+1]))
	}
	if len(nodes)%2 == 1 {
		next = append(next, nodes[len(nodes)-1])
	}
	return next
}

// Root computes the Merkle root of the leaves. Panics on zero leaves:
// the ledger never seals an empty batch.
func Root(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		panic("ledger: Merkle root of zero leaves")
	}
	nodes := leaves
	for len(nodes) > 1 {
		nodes = levelUp(nodes)
	}
	return nodes[0]
}

// ProofFor returns the inclusion proof of leaf idx: the sibling steps
// that fold the leaf back to Root(leaves).
func ProofFor(leaves [][32]byte, idx int) []ProofStep {
	if idx < 0 || idx >= len(leaves) {
		panic(fmt.Sprintf("ledger: proof index %d out of range [0,%d)", idx, len(leaves)))
	}
	var steps []ProofStep
	nodes := leaves
	i := idx
	for len(nodes) > 1 {
		if sib := i ^ 1; sib < len(nodes) {
			steps = append(steps, ProofStep{Hash: nodes[sib], Right: i%2 == 0})
		}
		// An unpaired trailing node promotes with no step; i/2 lands on
		// its promoted position either way.
		nodes = levelUp(nodes)
		i /= 2
	}
	return steps
}

// Fold replays an inclusion proof from a leaf hash to the implied root.
func Fold(leaf [32]byte, steps []ProofStep) [32]byte {
	h := leaf
	for _, st := range steps {
		if st.Right {
			h = nodeHash(h, st.Hash)
		} else {
			h = nodeHash(st.Hash, h)
		}
	}
	return h
}

// Proof is the complete inclusion evidence of one sealed entry: fold
// Entry's leaf hash through Siblings to get Root, then check the chain
// link — Chain must equal ChainLink(PrevChain, Root, BatchIndex). An
// auditor ties Chain to the current head via the root chain records
// (VerifyRootChain).
type Proof struct {
	Entry      Entry
	BatchIndex int
	LeafIndex  int
	Siblings   []ProofStep
	Root       [32]byte
	PrevChain  [32]byte
	Chain      [32]byte
}

// Verify checks the proof self-consistently: leaf → root → chain link.
func (p *Proof) Verify() error {
	leaf := p.Entry.LeafHash()
	if got := Fold(leaf, p.Siblings); got != p.Root {
		return fmt.Errorf("ledger: inclusion proof of %q folds to %s, batch %d root is %s (entry or proof tampered)",
			p.Entry.Key, hx(got), p.BatchIndex, hx(p.Root))
	}
	if got := ChainLink(p.PrevChain, p.Root, p.BatchIndex); got != p.Chain {
		return fmt.Errorf("ledger: batch %d chain link mismatch (root chain tampered)", p.BatchIndex)
	}
	return nil
}

// CheckLeaf checks the proof's LeafIndex against rec, the root record
// of its batch, which Verify cannot do: the fold reads only the side
// bits, and a one-step left proof fits leaf 4 of 5 as well as leaf 1
// of 2. The index must lie in [0, Entries), equal the entry's position
// Seq − FirstSeq (Seq is hashed into the leaf), and give the step
// sides ProofFor gives for that leaf of an Entries-leaf batch.
func (p *Proof) CheckLeaf(rec RootRecord) error {
	if rec.Index != p.BatchIndex {
		return fmt.Errorf("ledger: root record is for batch %d, proof for batch %d", rec.Index, p.BatchIndex)
	}
	if p.LeafIndex < 0 || p.LeafIndex >= rec.Entries {
		return fmt.Errorf("ledger: leaf index %d outside batch %d of %d entries", p.LeafIndex, p.BatchIndex, rec.Entries)
	}
	if p.Entry.Seq < rec.FirstSeq || p.Entry.Seq-rec.FirstSeq != uint64(p.LeafIndex) {
		return fmt.Errorf("ledger: leaf index %d does not fit entry seq %d in batch %d (first seq %d)",
			p.LeafIndex, p.Entry.Seq, p.BatchIndex, rec.FirstSeq)
	}
	i, n, step := p.LeafIndex, rec.Entries, 0
	for ; n > 1; i, n = i/2, (n+1)/2 {
		if i^1 >= n {
			continue // unpaired: promotes with no step, as in ProofFor
		}
		if step >= len(p.Siblings) || p.Siblings[step].Right != (i%2 == 0) {
			return fmt.Errorf("ledger: proof steps do not fit leaf %d of %d", p.LeafIndex, rec.Entries)
		}
		step++
	}
	if step != len(p.Siblings) {
		return fmt.Errorf("ledger: proof has %d steps, leaf %d of %d takes %d", len(p.Siblings), p.LeafIndex, rec.Entries, step)
	}
	return nil
}

// ProofStepJSON is the wire form of one proof step.
type ProofStepJSON struct {
	Hash  string `json:"hash"`
	Right bool   `json:"right"`
}

// ProofJSON is the wire form of an inclusion proof, embedded in the
// GET /v1/certificates/{hash} response and consumed by dipcert.
type ProofJSON struct {
	LeafHash  string          `json:"leaf_hash"`
	Batch     int             `json:"batch"`
	LeafIndex int             `json:"leaf_index"`
	Siblings  []ProofStepJSON `json:"siblings"`
	Root      string          `json:"root"`
	PrevChain string          `json:"prev_chain"`
	Chain     string          `json:"chain"`
}

// JSON converts the proof to its wire form.
func (p *Proof) JSON() ProofJSON {
	steps := make([]ProofStepJSON, len(p.Siblings))
	for i, st := range p.Siblings {
		steps[i] = ProofStepJSON{Hash: hx(st.Hash), Right: st.Right}
	}
	return ProofJSON{
		LeafHash:  hx(p.Entry.LeafHash()),
		Batch:     p.BatchIndex,
		LeafIndex: p.LeafIndex,
		Siblings:  steps,
		Root:      hx(p.Root),
		PrevChain: hx(p.PrevChain),
		Chain:     hx(p.Chain),
	}
}

// Proof reconstructs a verifiable Proof from the wire form plus the
// entry it claims to include.
func (pj ProofJSON) Proof(e Entry) (*Proof, error) {
	p := &Proof{Entry: e, BatchIndex: pj.Batch, LeafIndex: pj.LeafIndex}
	var err error
	if p.Root, err = unhx(pj.Root); err != nil {
		return nil, fmt.Errorf("ledger: bad proof root: %w", err)
	}
	if p.PrevChain, err = unhx(pj.PrevChain); err != nil {
		return nil, fmt.Errorf("ledger: bad proof prev_chain: %w", err)
	}
	if p.Chain, err = unhx(pj.Chain); err != nil {
		return nil, fmt.Errorf("ledger: bad proof chain: %w", err)
	}
	p.Siblings = make([]ProofStep, len(pj.Siblings))
	for i, st := range pj.Siblings {
		if p.Siblings[i].Hash, err = unhx(st.Hash); err != nil {
			return nil, fmt.Errorf("ledger: bad proof sibling %d: %w", i, err)
		}
		p.Siblings[i].Right = st.Right
	}
	return p, nil
}

// VerifyRootChain checks a contiguous run of root records: indices
// consecutive, each record's chain the ChainLink of its predecessor's,
// and each PrevChain matching the previous Chain. Returns the head
// chain value of the run. The records need not start at batch 0: an
// auditor holding a proof for batch b only needs records b..head.
func VerifyRootChain(records []RootRecord) ([32]byte, error) {
	if len(records) == 0 {
		return [32]byte{}, fmt.Errorf("ledger: empty root chain")
	}
	var head [32]byte
	for i, rec := range records {
		root, err := unhx(rec.Root)
		if err != nil {
			return head, fmt.Errorf("ledger: root record %d: bad root: %w", rec.Index, err)
		}
		prev, err := unhx(rec.PrevChain)
		if err != nil {
			return head, fmt.Errorf("ledger: root record %d: bad prev_chain: %w", rec.Index, err)
		}
		chain, err := unhx(rec.Chain)
		if err != nil {
			return head, fmt.Errorf("ledger: root record %d: bad chain: %w", rec.Index, err)
		}
		if i > 0 {
			if rec.Index != records[i-1].Index+1 {
				return head, fmt.Errorf("ledger: root records skip from batch %d to %d", records[i-1].Index, rec.Index)
			}
			if prev != head {
				return head, fmt.Errorf("ledger: batch %d prev_chain does not extend batch %d", rec.Index, records[i-1].Index)
			}
		}
		if got := ChainLink(prev, root, rec.Index); got != chain {
			return head, fmt.Errorf("ledger: batch %d chain link mismatch", rec.Index)
		}
		head = chain
	}
	return head, nil
}

func hx(b [32]byte) string { return hex.EncodeToString(b[:]) }

func unhx(s string) ([32]byte, error) {
	var out [32]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, err
	}
	if len(b) != 32 {
		return out, fmt.Errorf("want 32 bytes, got %d", len(b))
	}
	copy(out[:], b)
	return out, nil
}

// Hex and UnHex expose the fixed-width hash hex codec for callers
// (dipcert) that compare wire values against computed ones.
func Hex(b [32]byte) string { return hx(b) }

// UnHex parses a 64-char hex hash.
func UnHex(s string) ([32]byte, error) { return unhx(s) }
