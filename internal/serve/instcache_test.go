package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/obs"
)

// TestInstanceKeyIgnoresProtocolAndSeed: the instance key is the
// request identity minus protocol and seed — exactly the requests the
// result cache cannot share but the intern cache must.
func TestInstanceKeyIgnoresProtocolAndSeed(t *testing.T) {
	k := InstanceKey(4, k4Edges(), nil, nil)
	if k != InstanceKey(4, k4Edges(), nil, nil) {
		t.Fatal("instance key not deterministic")
	}
	for _, protocol := range []string{"planarity", "pls"} {
		for _, seed := range []int64{1, 99} {
			if CanonicalKey(protocol, seed, 4, k4Edges(), nil, nil) == k {
				t.Fatalf("instance key collides with request key of %s/%d", protocol, seed)
			}
		}
	}
	if InstanceKey(4, k4Edges(), []int{0, 1, 2, 3}, nil) == k {
		t.Fatal("witness not part of the instance identity")
	}
}

// TestInstanceCacheInternAndEvict: LRU behavior of the intern cache.
func TestInstanceCacheInternAndEvict(t *testing.T) {
	c := newInstanceCache(2)
	insts := make([]*Instance, 3)
	keys := make([]RequestKey, 3)
	for i := range insts {
		g := graph.New(2)
		g.MustAddEdge(0, 1)
		insts[i] = &Instance{G: g, PathPos: []int{i % 2, (i + 1) % 2}}
		keys[i] = RequestKey(fmt.Sprintf("k%d", i))
	}
	if got, hit := c.Intern(keys[0], insts[0]); hit || got != insts[0] {
		t.Fatal("first intern should miss and return fresh")
	}
	if got, hit := c.Intern(keys[0], insts[1]); !hit || got != insts[0] {
		t.Fatal("second intern of same key should hit with the cached instance")
	}
	c.Intern(keys[1], insts[1])
	c.Intern(keys[2], insts[2]) // evicts keys[0] (LRU after its touch... keys[1] newer)
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	if _, hit := c.Intern(keys[0], insts[0]); hit {
		t.Fatal("evicted key still resident")
	}

	disabled := newInstanceCache(0)
	if got, hit := disabled.Intern(keys[0], insts[0]); hit || got != insts[0] || disabled.Len() != 0 {
		t.Fatal("capacity 0 must always pass fresh through")
	}
}

// certifyPath posts /v1/certify for a fixed 8-node path graph under
// pathouter (a single-root-span protocol that runs through the
// memoized Instance.DIP, so freeze sharing is observable end to end).
func certifyPath(t *testing.T, h http.Handler, seed int) {
	t.Helper()
	certifyBody(t, h, seed, fmt.Sprintf(
		`{"protocol":"pathouter","seed":%d,"graph":{"n":8,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7]]}}`, seed))
}

// certifyTriangulation posts /v1/certify for one generated 64-node
// triangulation under planarity, whose runs freeze two derived
// instances (the spanning-tree stage's and h(G,T,ρ)) unless they run
// from a stored prepared value.
func certifyTriangulation(t *testing.T, h http.Handler, seed int) {
	t.Helper()
	certifyBody(t, h, seed, fmt.Sprintf(
		`{"protocol":"planarity","seed":%d,"gen":{"family":"triangulation","n":64,"seed":3}}`, seed))
}

func certifyBody(t *testing.T, h http.Handler, seed int, body string) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/certify", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("seed %d: status %d: %s", seed, w.Code, w.Body.String())
	}
}

// TestCertifyInternsInstances: two /certify requests for the same graph
// under different seeds (distinct result-cache keys, so both really
// run) share one interned instance — visible as an instance-cache hit
// and exactly one dense freeze across both runs. With the intern cache
// disabled, the same pair freezes twice. A planarity triangulation
// certified under three seeds freezes its two derived instances on
// each of the first two requests, and not at all on the third, which
// runs from the prepared value the second one stored on the interned
// instance; with the intern cache disabled every request freezes two.
func TestCertifyInternsInstances(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	before := dip.FreezeCount()
	certifyPath(t, h, 1)
	certifyPath(t, h, 2)
	if hits := reg.Get("instance_cache_hits_total"); hits != 1 {
		t.Fatalf("instance_cache_hits_total = %d, want 1", hits)
	}
	if misses := reg.Get("instance_cache_misses_total"); misses != 1 {
		t.Fatalf("instance_cache_misses_total = %d, want 1", misses)
	}
	if delta := dip.FreezeCount() - before; delta != 1 {
		t.Fatalf("freeze delta with interning = %d, want exactly 1", delta)
	}
	for i, want := range []uint64{2, 2, 0} {
		before := dip.FreezeCount()
		certifyTriangulation(t, h, i+1)
		if delta := dip.FreezeCount() - before; delta != want {
			t.Fatalf("planarity request %d with interning froze %d times, want %d", i+1, delta, want)
		}
	}

	s2, err := New(Config{Registry: obs.NewRegistry(), InstanceCacheCapacity: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	h2 := s2.Handler()
	before2 := dip.FreezeCount()
	certifyPath(t, h2, 1)
	certifyPath(t, h2, 2)
	if delta2 := dip.FreezeCount() - before2; delta2 != 2 {
		t.Fatalf("freeze delta without interning = %d, want 2 (one per run)", delta2)
	}
	for seed := 1; seed <= 3; seed++ {
		before := dip.FreezeCount()
		certifyTriangulation(t, h2, seed)
		if delta := dip.FreezeCount() - before; delta != 2 {
			t.Fatalf("planarity request %d without interning froze %d times, want 2", seed, delta)
		}
	}
}
