package serve

import (
	"container/list"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
)

// Cache is an LRU result cache with singleflight deduplication: at most
// one computation per key runs at a time, concurrent requests for the
// same key wait for the leader's result, and successful results are
// retained up to the capacity with least-recently-used eviction.
// Failed computations are never cached, so transient errors (queue
// full, deadline exceeded) do not poison the key.
type Cache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List                   // front = most recently used
	items    map[RequestKey]*list.Element // of *cacheEntry
	inflight map[RequestKey]*flight
}

// cacheEntry is one computed response. val is immutable; its per-call
// fields are zero.
type cacheEntry struct {
	key RequestKey
	val *Response
	// json is val's JSON up to its per-call fields, stored on the
	// entry's first hit (prefix). Never on a miss: an entry that is
	// never hit would keep bytes nobody reads, and a composite
	// protocol's response carries hundreds of round stats.
	json atomic.Pointer[[]byte]
}

type flight struct {
	done  chan struct{}
	entry *cacheEntry
	err   error
}

// NewCache returns a cache holding up to capacity responses;
// capacity <= 0 disables retention but keeps singleflight dedup.
func NewCache(capacity int) *Cache {
	return &Cache{
		cap:      capacity,
		ll:       list.New(),
		items:    make(map[RequestKey]*list.Element),
		inflight: make(map[RequestKey]*flight),
	}
}

// Outcome classifies how a Do call was served, for metrics.
type Outcome int

const (
	// Computed: this call ran fn itself (cache miss, singleflight leader).
	Computed Outcome = iota
	// Hit: served from the LRU store without running fn.
	Hit
	// Shared: waited on a concurrent identical request's computation.
	Shared
)

// Do returns the entry for key, running fn at most once across all
// concurrent callers with the same key. The returned Outcome reports
// whether the entry came from the store, a shared in-flight
// computation, or a fresh run of fn.
func (c *Cache) Do(key RequestKey, fn func() (*Response, error)) (*cacheEntry, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		return e, Hit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.entry, Shared, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	val, err := fn()
	if err == nil {
		f.entry = &cacheEntry{key: key, val: val}
	}
	f.err = err
	close(f.done)

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil && c.cap > 0 {
		c.insert(f.entry)
	}
	c.mu.Unlock()
	return f.entry, Computed, f.err
}

// Put inserts a response directly, bypassing singleflight — the boot
// path replaying the persisted ledger into the cache. An existing
// entry wins (it may carry richer data, e.g. round stats); retention
// disabled means no-op.
func (c *Cache) Put(key RequestKey, val *Response) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if _, ok := c.items[key]; ok {
		return
	}
	c.insert(&cacheEntry{key: key, val: val})
}

// insert stores e as the most recently used entry, evicting the least
// recently used beyond the capacity. c.mu must be held.
func (c *Cache) insert(e *cacheEntry) {
	c.items[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached responses.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// perCallTail is the JSON of a Response's per-call fields at their zero
// values, closing brace included: how every cached value's JSON ends.
const perCallTail = `,"cache_hit":false,"wall_ns":0}`

// responsePrefix returns resp's JSON up to its per-call fields, which
// must be zero.
func responsePrefix(resp *Response) []byte {
	b, _ := json.Marshal(resp) // a Response has nothing json.Marshal refuses
	return b[:len(b)-len(perCallTail)]
}

// prefix returns the entry's response JSON up to its per-call fields,
// encoding and keeping it on first use. Concurrent first uses may each
// encode it; the bytes are identical, so either store may win.
func (e *cacheEntry) prefix() []byte {
	if p := e.json.Load(); p != nil {
		return *p
	}
	b := responsePrefix(e.val)
	e.json.Store(&b)
	return b
}

// writeResponse writes e's response as served by one call, byte for
// byte what json.Encoder.Encode writes for a copy of e.val carrying
// that call's per-call fields: the JSON prefix — kept on the entry for
// a hit, encoded for this call alone on a miss or a shared call — then
// cache_hit, shared when true, wall_ns, and the newline.
func writeResponse(w io.Writer, e *cacheEntry, outcome Outcome, wallNS int64) {
	var prefix []byte
	if outcome == Hit {
		prefix = e.prefix()
	} else {
		prefix = responsePrefix(e.val)
	}
	tail := make([]byte, 0, 64)
	tail = append(tail, `,"cache_hit":`...)
	tail = strconv.AppendBool(tail, outcome == Hit)
	if outcome == Shared {
		tail = append(tail, `,"shared":true`...)
	}
	tail = append(tail, `,"wall_ns":`...)
	tail = strconv.AppendInt(tail, wallNS, 10)
	tail = append(tail, "}\n"...)
	// A failed write means the client has gone; there is no one left to
	// tell.
	w.Write(prefix)
	w.Write(tail)
}
