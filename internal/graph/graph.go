// Package graph provides the undirected-graph substrate shared by every
// protocol in the repository: adjacency structure, connectivity, biconnected
// decomposition, spanning trees, Euler tours, degeneracy orderings, greedy
// colorings, and contractions.
//
// Graphs are simple (no self-loops, no parallel edges) and vertices are
// integers 0..n-1, matching the paper's anonymous-network convention: node
// identity never enters a protocol, only local port structure does.
package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Edge is an undirected edge with U < V.
type Edge struct {
	U, V int
}

// Canon returns the edge with endpoints in canonical (U < V) order.
func Canon(u, v int) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Other returns the endpoint of e that is not x.
func (e Edge) Other(x int) int {
	if x == e.U {
		return e.V
	}
	return e.U
}

// Graph is a simple undirected graph. Two construction paths produce
// one: the incremental map-backed New/AddEdge API, and the bulk CSR
// Builder (builder.go), whose graphs are sealed — immutable, with the
// by-endpoints edge-id map materialized lazily only if something asks.
type Graph struct {
	n     int
	adj   [][]int
	edges []Edge
	// eid maps canonical edges to ids. Nil on builder-built graphs
	// until a HasEdge/EdgeID call materializes it (see edgeMap).
	eid map[Edge]int
	// portEID[v][p] is the edge id of the edge between v and its
	// neighbor at port p, i.e. {v, adj[v][p]}. Maintained alongside adj
	// so hot paths can resolve port -> edge id without hashing.
	portEID [][]int
	// sealed marks a Builder-built graph: AddEdge is refused, which is
	// what lets the lazy eid map and the degeneracy-rank memo stay
	// valid for the graph's lifetime.
	sealed bool

	// derivedMu guards the lazily materialized derived state below.
	// Reads through frozen instances happen from many goroutines at
	// once (concurrent runners share one frozen dip instance), so
	// materialization must be race-free even though construction itself
	// is single-goroutine.
	derivedMu sync.Mutex
	// rank/degen memoize DegeneracyRank; rank is nil until computed and
	// invalidated by AddEdge.
	rank  []int
	degen int
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Graph{
		n:       n,
		adj:     make([][]int, n),
		eid:     make(map[Edge]int),
		portEID: make([][]int, n),
	}
}

// NewSized is New with the edge-list and edge-id storage pre-reserved
// for m edges, for incremental generators that know their size; bulk
// construction should use Builder instead, which never builds the map.
func NewSized(n, m int) *Graph {
	g := New(n)
	if m > 0 {
		g.edges = make([]Edge, 0, m)
		g.eid = make(map[Edge]int, m)
	}
	return g
}

// Sealed reports whether g came out of a Builder and refuses AddEdge.
func (g *Graph) Sealed() bool { return g.sealed }

// edgeMap returns the canonical-edge -> id map, materializing it on
// first use for sealed graphs. Bulk paths never call it; on sealed
// graphs every call locks, which keeps the lazy materialization
// race-free without a double-checked fast path (unsealed graphs always
// carry the map and are single-goroutine by construction contract).
func (g *Graph) edgeMap() map[Edge]int {
	if !g.sealed {
		return g.eid
	}
	g.derivedMu.Lock()
	defer g.derivedMu.Unlock()
	if g.eid == nil {
		m := make(map[Edge]int, len(g.edges))
		for id, e := range g.edges {
			m[e] = id
		}
		g.eid = m
	}
	return g.eid
}

// Clone returns a deep copy of g. The copy is always unsealed and
// map-backed, so cloning is also the way to get a mutable variant of a
// Builder-built graph (the no-instance generators plant extra edges
// into clones of bulk-built yes-instances).
func (g *Graph) Clone() *Graph {
	h := NewSized(g.n, len(g.edges))
	for _, e := range g.edges {
		h.mustAddEdge(e.U, e.V)
	}
	return h
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge {u,v}. Self-loops and duplicates
// are rejected, as is any insertion into a sealed (Builder-built) graph.
func (g *Graph) AddEdge(u, v int) error {
	if g.sealed {
		return fmt.Errorf("graph: AddEdge(%d,%d) on a sealed builder-built graph", u, v)
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	e := Canon(u, v)
	if _, ok := g.eid[e]; ok {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.rank = nil // derived degeneracy rank is stale now
	id := len(g.edges)
	g.eid[e] = id
	g.edges = append(g.edges, e)
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.portEID[u] = append(g.portEID[u], id)
	g.portEID[v] = append(g.portEID[v], id)
	return nil
}

func (g *Graph) mustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// MustAddEdge is AddEdge for construction code where failure is a bug.
func (g *Graph) MustAddEdge(u, v int) { g.mustAddEdge(u, v) }

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.edgeMap()[Canon(u, v)]
	return ok
}

// EdgeID returns the index of edge {u,v} in Edges(), or -1.
func (g *Graph) EdgeID(u, v int) int {
	id, ok := g.edgeMap()[Canon(u, v)]
	if !ok {
		return -1
	}
	return id
}

// Edges returns the edge list in insertion order. The caller must not
// modify the returned slice.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the adjacency list of v. The caller must not modify
// the returned slice.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// PortEdgeIDs returns, aligned with Neighbors(v), the edge id of the
// edge behind each of v's ports: PortEdgeIDs(v)[p] == EdgeID(v,
// Neighbors(v)[p]), with no hash lookup. The caller must not modify the
// returned slice.
func (g *Graph) PortEdgeIDs(v int) []int { return g.portEID[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// IsConnected reports whether the graph is connected (the empty graph and
// the single vertex count as connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.Component(0)) == g.n
}

// Component returns the vertices reachable from src, in BFS order.
func (g *Graph) Component(src int) []int {
	seen := make([]bool, g.n)
	queue := []int{src}
	seen[src] = true
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return queue
}

// Components returns all connected components, each a sorted vertex list.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for v := 0; v < g.n; v++ {
		if seen[v] {
			continue
		}
		comp := g.Component(v)
		for _, u := range comp {
			seen[u] = true
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Contract returns the graph obtained by merging vertices according to
// part (part[v] = supervertex of v, supervertices must be 0..k-1 for some
// k), discarding self-loops and parallel edges. It also returns k.
func (g *Graph) Contract(part []int) (*Graph, int) {
	if len(part) != g.n {
		panic(fmt.Sprintf("graph: partition size %d != n %d", len(part), g.n))
	}
	k := 0
	for _, p := range part {
		if p+1 > k {
			k = p + 1
		}
	}
	h := New(k)
	for _, e := range g.edges {
		pu, pv := part[e.U], part[e.V]
		if pu != pv && !h.HasEdge(pu, pv) {
			h.mustAddEdge(pu, pv)
		}
	}
	return h, k
}
