// Package spantree implements the spanning-tree verification DIP of
// Lemma 2.5: 3 interaction rounds, constant proof size per repetition,
// perfect completeness, soundness error 2^-Reps.
//
// The paper cites the NPY20 protocol as a black box; this package builds
// an equivalent-interface protocol from two randomized checks (see
// DESIGN.md §4 for why the substitution preserves behavior):
//
//   - acyclicity: every node draws a random bit vector a_v; the prover
//     must label each node with the telescoping XOR S_v = a_v XOR
//     S_parent(v). Around any cycle of claimed parent pointers the
//     constraints force XOR of the a_v to vanish, which fresh randomness
//     survives with probability 2^-Reps;
//   - connectivity: every claimed root draws a random component ID that
//     the prover must propagate down its tree; local equality checks make
//     IDs constant per component, and since the host graph is connected,
//     two components expose a crossing edge whose endpoints then hold
//     different random IDs.
//
// Together: all parent pointers acyclic + every node has a parent or is
// the unique root + tree edges are real graph edges (enforced by the
// forest-code decoding) = the claimed structure is a spanning tree.
package spantree

import (
	"fmt"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// Params configures the repetition count (soundness 2^-Reps) and the
// component-ID length in bits.
type Params struct {
	Reps   int
	IDBits int
}

// DefaultParams gives constant-size labels with constant soundness error,
// the Lemma 2.5 baseline.
func DefaultParams() Params { return Params{Reps: 1, IDBits: 1} }

// Amplified gives soundness error 2^-l, the form the composite protocols
// use (the paper's "amplified by a Theta(l) parallel repetition").
func Amplified(l int) Params {
	if l < 1 {
		l = 1
	}
	if l > 63 {
		l = 63
	}
	return Params{Reps: l, IDBits: l}
}

// Coin is the public randomness one node contributes.
type Coin struct {
	A  uint64 // Reps random bits for the telescoping check
	ID uint64 // IDBits random bits, consumed only if the node is a root
}

// Encode writes the coin under p.
func (c Coin) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(c.A, p.Reps)
	w.WriteUint(c.ID, p.IDBits)
	return w.String()
}

// DecodeCoin parses a coin.
func DecodeCoin(s bitio.String, p Params) (Coin, error) { return ReadCoin(s.Reader(), p) }

// ReadCoin reads a coin in place from r, for coins that embed one.
func ReadCoin(r *bitio.Reader, p Params) (Coin, error) {
	a, err := r.ReadUint(p.Reps)
	if err != nil {
		return Coin{}, fmt.Errorf("spantree: %w", err)
	}
	id, err := r.ReadUint(p.IDBits)
	if err != nil {
		return Coin{}, fmt.Errorf("spantree: %w", err)
	}
	return Coin{A: a, ID: id}, nil
}

// SampleCoin draws a fresh coin.
func SampleCoin(p Params, rng *rand.Rand) Coin {
	return Coin{
		A:  rng.Uint64() & mask(p.Reps),
		ID: rng.Uint64() & mask(p.IDBits),
	}
}

func mask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(bits)) - 1
}

// Sum is the prover's response label at one node.
type Sum struct {
	S  uint64 // telescoping XOR down from the root
	ID uint64 // component ID
}

// Encode writes the sum under p.
func (s Sum) Encode(p Params) bitio.String {
	var w bitio.Writer
	w.WriteUint(s.S, p.Reps)
	w.WriteUint(s.ID, p.IDBits)
	return w.String()
}

// DecodeSum parses a sum label.
func DecodeSum(b bitio.String, p Params) (Sum, error) { return ReadSum(b.Reader(), p) }

// ReadSum reads a sum label in place from r, for labels that embed one.
func ReadSum(r *bitio.Reader, p Params) (Sum, error) {
	s, err := r.ReadUint(p.Reps)
	if err != nil {
		return Sum{}, fmt.Errorf("spantree: %w", err)
	}
	id, err := r.ReadUint(p.IDBits)
	if err != nil {
		return Sum{}, fmt.Errorf("spantree: %w", err)
	}
	return Sum{S: s, ID: id}, nil
}

// HonestSums computes the honest prover's labels for the rooted forest
// given by parent pointers: S telescopes from each root, IDs copy each
// root's sampled ID down its tree.
func HonestSums(parent []int, coins []Coin) ([]Sum, error) {
	n := len(parent)
	if _, err := graph.NewTreeFromParents(parent, rootOf(parent)); err != nil {
		return nil, fmt.Errorf("spantree: %w", err)
	}
	sums := make([]Sum, n)
	done := make([]bool, n)
	var stack []int
	for v := 0; v < n; v++ {
		if done[v] {
			continue
		}
		// Walk up to the first resolved ancestor (or a root), then fill
		// back down; iterative so Hamiltonian paths do not recurse deeply.
		u := v
		for !done[u] && parent[u] != -1 {
			stack = append(stack, u)
			u = parent[u]
		}
		if !done[u] {
			sums[u] = Sum{S: coins[u].A, ID: coins[u].ID}
			done[u] = true
		}
		for len(stack) > 0 {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ps := sums[parent[w]]
			sums[w] = Sum{S: coins[w].A ^ ps.S, ID: ps.ID}
			done[w] = true
		}
	}
	return sums, nil
}

func rootOf(parent []int) int {
	for v, p := range parent {
		if p == -1 {
			return v
		}
	}
	return 0
}

// CheckNode is the per-node verification used both by the standalone
// protocol and by composite protocols embedding spanning-tree checks:
// isRoot and parentSum come from the decoded forest structure.
func CheckNode(p Params, isRoot bool, coin Coin, own Sum, parentSum *Sum, nbrSums []Sum) bool {
	if isRoot {
		if own.S != coin.A || own.ID != coin.ID {
			return false
		}
	} else {
		if parentSum == nil {
			return false
		}
		if own.S != coin.A^parentSum.S {
			return false
		}
		if own.ID != parentSum.ID {
			return false
		}
	}
	for _, s := range nbrSums {
		if s.ID != own.ID {
			return false
		}
	}
	return true
}
