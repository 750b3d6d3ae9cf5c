package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/graph"
	"repro/internal/planar"
)

// RequestKey is the canonical cache key of one certification request:
// a hex digest of (protocol, seed, vertex count, edge set). Two
// requests that describe the same instance — regardless of the order
// or endpoint orientation of their edge lists, and regardless of
// whether the graph arrived inline or was materialized from a
// generator spec — produce the same key, so the result cache and the
// singleflight group deduplicate them.
type RequestKey string

// Shard maps the key onto one of n worker-pool shards. The key is
// already a cryptographic digest, so the leading bytes are uniform.
func (k RequestKey) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	var x uint64
	for i := 0; i < 8 && i < len(k); i++ {
		x = x<<8 | uint64(k[i])
	}
	return int(x % uint64(n))
}

// CanonicalKey computes the RequestKey for running protocol with the
// given verifier seed on the graph (n vertices, edges), with the
// prover's private witness inputs — witness, a Hamiltonian-path
// position vector, and rot, a combinatorial embedding; nil when the
// prover derives its own — hashed position-sensitively, because a
// witness is ordered data, unlike the edge set. The edge list is
// canonicalized — each edge sorted endpoint-wise, then the list sorted
// lexicographically — before hashing, which is what makes the key
// order-invariant. Duplicate edges collapse (the graph type rejects
// them anyway, so they cannot describe distinct instances).
func CanonicalKey(protocol string, seed int64, n int, edges []graph.Edge, witness []int, rot *planar.Rotation) RequestKey {
	return keyFromCanon(protocol, seed, n, canonOf(edges), witness, rot)
}

// canonOf returns edges canonicalized: packed (packEdge), then sorted.
func canonOf(edges []graph.Edge) []uint64 {
	canon := make([]uint64, len(edges))
	for i, e := range edges {
		canon[i] = packEdge(e.U, e.V)
	}
	slices.Sort(canon)
	return canon
}

// packEdge packs the edge {u, v}, endpoints below 1<<32, into the word
// min<<32 | max: words sort as their endpoint-sorted edges sort
// lexicographically, in 8 bytes instead of a graph.Edge's 16.
func packEdge(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// keyFromCanon hashes a sorted list of packed edges (canonOf) into the
// RequestKey. Split out so that callers holding such a list — the
// inline fast path's canonEdges result, an interned instance's kept
// list — derive the identical digest without sorting again.
func keyFromCanon(protocol string, seed int64, n int, canon []uint64, witness []int, rot *planar.Rotation) RequestKey {
	h := sha256.New()
	// The bytes hashed match the historical fmt.Fprintf prefix and
	// per-edge writes exactly; they are gathered in a buffer so that
	// the digest takes one Write per 4 KiB, not one per edge.
	b := make([]byte, 0, 4096)
	put := func(x uint64) {
		if len(b)+8 > cap(b) {
			h.Write(b)
			b = b[:0]
		}
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	b = append(b, "dipserve/v1|"...)
	b = append(b, protocol...)
	b = append(b, '|')
	b = strconv.AppendInt(b, seed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '|')
	for i, w := range canon {
		if i > 0 && w == canon[i-1] {
			continue
		}
		// u | v<<32, each endpoint as 32 bits.
		put(bits.RotateLeft64(w, 32))
	}
	if len(witness) > 0 {
		b = append(b, "|witness|"...)
		for _, p := range witness {
			put(uint64(p))
		}
	}
	if rot != nil {
		b = append(b, "|rotation|"...)
		for v, row := range rot.Rot {
			put(uint64(v) | uint64(len(row))<<32)
			for _, u := range row {
				put(uint64(u))
			}
		}
	}
	h.Write(b)
	var sum [sha256.Size]byte
	var hx [32]byte
	hex.Encode(hx[:], h.Sum(sum[:0])[:16])
	return RequestKey(hx[:])
}

// canonEdges validates an inline edge list against vertex count n, at
// most 1<<32, and returns it canonicalized (canonOf) — the exact form
// keyFromCanon hashes. The rejections mirror graph.AddEdge's
// (out-of-range endpoint, self-loop, duplicate edge), so a request that
// fails here would have failed materialization the same way; passing
// means the graph can be built later without revalidation, which is
// what lets the certify fast path derive the cache key without
// materializing a graph at all.
func canonEdges(n int, edges [][2]int) ([]uint64, error) {
	canon := make([]uint64, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		canon[i] = packEdge(u, v)
	}
	slices.Sort(canon)
	for i := 1; i < len(canon); i++ {
		if canon[i] == canon[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", canon[i]>>32, uint32(canon[i]))
		}
	}
	return canon, nil
}
