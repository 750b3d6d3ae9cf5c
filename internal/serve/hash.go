package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
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

// canonOf returns edges canonicalized: each edge sorted endpoint-wise,
// then the list sorted lexicographically.
func canonOf(edges []graph.Edge) []graph.Edge {
	canon := make(edgesByEndpoint, len(edges))
	for i, e := range edges {
		canon[i] = graph.Canon(e.U, e.V)
	}
	// Typed sort, not sort.Slice: the reflection-based Swapper and the
	// comparison closure each allocate per call.
	sort.Sort(canon)
	return canon
}

// keyFromCanon hashes an already endpoint-canonical, lexicographically
// sorted edge list into the RequestKey. Split out so that callers
// holding such a list — the inline fast path's canonEdges result, an
// interned instance's kept list — derive the identical digest without
// sorting again.
func keyFromCanon(protocol string, seed int64, n int, canon []graph.Edge, witness []int, rot *planar.Rotation) RequestKey {
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
	for i, e := range canon {
		if i > 0 && e == canon[i-1] {
			continue
		}
		put(uint64(uint32(e.U)) | uint64(uint32(e.V))<<32)
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

// canonEdges validates an inline edge list against vertex count n and
// returns it canonicalized (endpoints sorted, list lexicographically
// sorted) — the exact form keyFromCanon hashes. The rejections mirror
// graph.AddEdge's (out-of-range endpoint, self-loop, duplicate edge),
// so a request that fails here would have failed materialization the
// same way; passing means the graph can be built later without
// revalidation, which is what lets the certify fast path derive the
// cache key without materializing a graph at all.
func canonEdges(n int, edges [][2]int) ([]graph.Edge, error) {
	canon := make(edgesByEndpoint, len(edges))
	for i, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at %d", u)
		}
		canon[i] = graph.Canon(u, v)
	}
	sort.Sort(canon)
	for i := 1; i < len(canon); i++ {
		if canon[i] == canon[i-1] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", canon[i].U, canon[i].V)
		}
	}
	return canon, nil
}

// edgesByEndpoint sorts canonical edges lexicographically by (U, V).
type edgesByEndpoint []graph.Edge

func (s edgesByEndpoint) Len() int      { return len(s) }
func (s edgesByEndpoint) Swap(i, j int) { s[i], s[j] = s[j], s[i] }
func (s edgesByEndpoint) Less(i, j int) bool {
	if s[i].U != s[j].U {
		return s[i].U < s[j].U
	}
	return s[i].V < s[j].V
}
