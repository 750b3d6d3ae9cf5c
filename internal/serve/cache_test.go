package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheDoTable drives the hit/miss/eviction state machine through a
// scripted sequence on a capacity-2 cache.
func TestCacheDoTable(t *testing.T) {
	c := NewCache(2)
	var computes atomic.Int64
	get := func(key string) (*Response, Outcome) {
		e, outcome, err := c.Do(RequestKey(key), func() (*Response, error) {
			computes.Add(1)
			return &Response{Key: key}, nil
		})
		if err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
		if resp := e.val; resp.Key != key {
			t.Fatalf("Do(%s) returned response for %s", key, resp.Key)
		}
		return e.val, outcome
	}

	steps := []struct {
		key         string
		wantOutcome Outcome
		wantCompute int64
		wantLen     int
	}{
		{"a", Computed, 1, 1}, // cold miss
		{"a", Hit, 1, 1},      // hit
		{"b", Computed, 2, 2}, // second key
		{"a", Hit, 2, 2},      // still resident, now MRU
		{"c", Computed, 3, 2}, // evicts LRU = b
		{"a", Hit, 3, 2},      // a survived
		{"b", Computed, 4, 2}, // b was evicted -> recompute, evicts c
		{"c", Computed, 5, 2}, // c evicted too
	}
	for i, st := range steps {
		_, outcome := get(st.key)
		if outcome != st.wantOutcome {
			t.Fatalf("step %d (%s): outcome %v, want %v", i, st.key, outcome, st.wantOutcome)
		}
		if n := computes.Load(); n != st.wantCompute {
			t.Fatalf("step %d (%s): %d computes, want %d", i, st.key, n, st.wantCompute)
		}
		if l := c.Len(); l != st.wantLen {
			t.Fatalf("step %d (%s): cache len %d, want %d", i, st.key, l, st.wantLen)
		}
	}
}

// TestCacheSingleflightDedup: G concurrent callers of one key must
// share exactly one computation — one Computed leader, G-1 Shared
// followers — and the value must land in the cache once.
func TestCacheSingleflightDedup(t *testing.T) {
	c := NewCache(8)
	const callers = 16
	gate := make(chan struct{})
	var computes, shared, computed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, outcome, err := c.Do("k", func() (*Response, error) {
				<-gate // hold every follower in the in-flight window
				computes.Add(1)
				return &Response{Key: "k", ProofSizeBits: 42}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if resp := e.val; resp.ProofSizeBits != 42 {
				t.Errorf("wrong response shared: %+v", resp)
			}
			switch outcome {
			case Shared:
				shared.Add(1)
			case Computed:
				computed.Add(1)
			case Hit:
				// A caller that arrived after the leader stored the
				// result sees a plain hit; legal, just not shared.
			}
		}()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("%d computations for one key, want 1", computes.Load())
	}
	if computed.Load() != 1 {
		t.Fatalf("%d leaders, want 1", computed.Load())
	}
	if c.Len() != 1 {
		t.Fatalf("cache len %d, want 1", c.Len())
	}
}

// TestCacheErrorNotCached: a failed computation must not poison the
// key — the next caller recomputes.
func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(4)
	boom := errors.New("boom")
	_, _, err := c.Do("k", func() (*Response, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len %d", c.Len())
	}
	e, outcome, err := c.Do("k", func() (*Response, error) { return &Response{Key: "k"}, nil })
	if err != nil || e == nil || e.val == nil || outcome != Computed {
		t.Fatalf("retry after error: entry=%v outcome=%v err=%v", e, outcome, err)
	}
}

// TestCacheZeroCapacity keeps singleflight but retains nothing.
func TestCacheZeroCapacity(t *testing.T) {
	c := NewCache(-1)
	for i := 0; i < 3; i++ {
		_, outcome, err := c.Do("k", func() (*Response, error) { return &Response{}, nil })
		if err != nil {
			t.Fatal(err)
		}
		if outcome != Computed {
			t.Fatalf("iteration %d: outcome %v, want Computed every time", i, outcome)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("capacity<=0 cache retained %d entries", c.Len())
	}
}

// TestFirstHitsConcurrent: many requests hit one fresh cache entry at
// once, racing to encode and store its response prefix. Every body
// must be byte-identical apart from wall_ns, and equal to the miss's
// body with cache_hit set; the miss itself stores no prefix.
func TestFirstHitsConcurrent(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := inlineBody(t, "treewidth2", "treewidth2", 24, false)
	post := func() []byte {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/certify", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Errorf("status %d: %s", w.Code, w.Body.String())
		}
		return w.Body.Bytes()
	}
	wall := regexp.MustCompile(`"wall_ns":\d+`)
	strip := func(b []byte) string { return wall.ReplaceAllString(string(b), `"wall_ns":0`) }

	miss := post()
	var out Response
	if err := json.Unmarshal(miss, &out); err != nil || out.CacheHit || len(out.RoundStats) == 0 {
		t.Fatalf("miss: %v, %s", err, miss)
	}
	s.cache.mu.Lock()
	entry := s.cache.items[RequestKey(out.Key)].Value.(*cacheEntry)
	s.cache.mu.Unlock()
	if entry.json.Load() != nil {
		t.Fatal("a miss stored the response prefix")
	}
	want := strings.Replace(strip(miss), `"cache_hit":false`, `"cache_hit":true`, 1)

	const callers = 32
	bodies := make([][]byte, callers)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			bodies[i] = post()
		}()
	}
	close(gate)
	wg.Wait()
	for i, b := range bodies {
		if got := strip(b); got != want {
			t.Fatalf("hit %d:\n got  %s\n want %s", i, got, want)
		}
	}
	if entry.json.Load() == nil {
		t.Fatal("hits stored no response prefix")
	}
}
