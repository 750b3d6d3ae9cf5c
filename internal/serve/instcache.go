package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/planar"
)

// InstanceKey is the instance-identity part of the canonical request
// hash: graph plus witnesses, with protocol and seed excluded. Requests
// that certify the same instance under different protocols or seeds —
// the ones the result cache cannot deduplicate — share an InstanceKey,
// which is what lets the service freeze each distinct instance once
// and run many.
func InstanceKey(n int, edges []graph.Edge, witness []int, rot *planar.Rotation) RequestKey {
	return CanonicalKey(instanceKeyProtocol, 0, n, edges, witness, rot)
}

// instanceKeyProtocol stands in for the protocol in an InstanceKey.
const instanceKeyProtocol = "#instance"

// instanceCache interns materialized instances by InstanceKey with LRU
// eviction. The interned *Instance carries the memoized engine-level
// instance and its dense frozen form (see protocol.Instance.DIP), and
// from its second run of a protocol that protocol's prepared state,
// all immutable after first use, so handing one instance to concurrent
// certification runs is race-free — each run builds its own runner
// against the shared frozen state.
//
// A gen-spec request also finds its entry by spec (genSpecKey), so a
// repeated spec runs neither the generator nor a sort. Each entry keeps
// the alias of the spec that last built it, so aliases never outnumber
// entries, and an alias lives and dies with its entry.
type instanceCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List                   // front = most recently used
	items map[RequestKey]*list.Element // of *instanceEntry
	specs map[specKey]*list.Element
}

// instanceEntry is one interned instance. Every field but spec is
// immutable once the entry is interned.
type instanceEntry struct {
	key  RequestKey
	inst *Instance
	// canon is inst.G's canonical edge list (canonOf), 8 bytes per
	// edge, kept so that the instance and request keys hash it without
	// sorting again.
	canon []uint64
	spec  specKey // guarded by instanceCache.mu; "" for no alias
}

// requestKey is CanonicalKey for running protocol under seed on the
// entry's instance, hashed from the kept canonical edge list.
func (e *instanceEntry) requestKey(protocol string, seed int64) RequestKey {
	return keyFromCanon(protocol, seed, e.inst.G.N(), e.canon, e.inst.PathPos, e.inst.Rotation)
}

func newInstanceCache(capacity int) *instanceCache {
	return &instanceCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[RequestKey]*list.Element),
		specs: make(map[specKey]*list.Element),
	}
}

// Lookup returns the entry spec aliases, counting as a use of it.
func (c *instanceCache) Lookup(spec specKey) (*instanceEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.specs[spec]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*instanceEntry), true
}

// Intern returns the cached entry with fresh's key, inserting fresh
// when the key is new, and makes spec, unless empty, alias the entry
// returned. The boolean reports a hit. With capacity <= 0 it always
// returns (fresh, false) and keeps nothing.
func (c *instanceCache) Intern(fresh *instanceEntry, spec specKey) (*instanceEntry, bool) {
	if c.cap <= 0 {
		return fresh, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, hit := c.items[fresh.key]
	if hit {
		c.ll.MoveToFront(el)
	} else {
		el = c.ll.PushFront(fresh)
		c.items[fresh.key] = el
	}
	e := el.Value.(*instanceEntry)
	if spec != "" && e.spec != spec {
		delete(c.specs, e.spec)
		e.spec = spec
		c.specs[spec] = el
	}
	for c.ll.Len() > c.cap {
		old := c.ll.Remove(c.ll.Back()).(*instanceEntry)
		delete(c.items, old.key)
		delete(c.specs, old.spec)
	}
	return e, hit
}

// Len returns the number of interned instances.
func (c *instanceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// specKey identifies a gen-spec request by everything that changes
// what BuildInstance builds from it: family, n, Δ, chord_prob (absent
// or its bit pattern), the generator seed and witness_pos.
type specKey string

// genSpecKey is the specKey of a request with gen spec g and explicit
// witness (nil when absent), a SHA-256 digest so that a long
// witness_pos does not make a long map key.
func genSpecKey(g *GenSpecJSON, witness []int) specKey {
	b := make([]byte, 0, 64+8*len(witness))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(g.Family)))
	b = append(b, g.Family...)
	b = binary.LittleEndian.AppendUint64(b, uint64(g.N))
	b = binary.LittleEndian.AppendUint64(b, uint64(g.Delta))
	b = binary.LittleEndian.AppendUint64(b, uint64(g.Seed))
	if g.ChordProb == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(*g.ChordProb))
	}
	if witness == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		for _, p := range witness {
			b = binary.LittleEndian.AppendUint64(b, uint64(p))
		}
	}
	sum := sha256.Sum256(b)
	return specKey(sum[:])
}
