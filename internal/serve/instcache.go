package serve

import (
	"container/list"
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
	return CanonicalKey("#instance", 0, n, edges, witness, rot)
}

// instanceCache interns materialized instances by InstanceKey with LRU
// eviction. The interned *Instance carries the memoized engine-level
// instance and its dense frozen form (see protocol.Instance.DIP), and
// from its second run of a protocol that protocol's prepared state,
// all immutable after first use, so handing one instance to concurrent
// certification runs is race-free — each run builds its own runner
// against the shared frozen state.
type instanceCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List                   // front = most recently used
	items map[RequestKey]*list.Element // of *instanceEntry
}

type instanceEntry struct {
	key  RequestKey
	inst *Instance
}

func newInstanceCache(capacity int) *instanceCache {
	return &instanceCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[RequestKey]*list.Element),
	}
}

// Intern returns the cached instance for key, inserting fresh when the
// key is new. The boolean reports a hit. With capacity <= 0 it always
// returns (fresh, false).
func (c *instanceCache) Intern(key RequestKey, fresh *Instance) (*Instance, bool) {
	if c.cap <= 0 {
		return fresh, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*instanceEntry).inst, true
	}
	c.items[key] = c.ll.PushFront(&instanceEntry{key: key, inst: fresh})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*instanceEntry).key)
	}
	return fresh, false
}

// Len returns the number of interned instances.
func (c *instanceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
