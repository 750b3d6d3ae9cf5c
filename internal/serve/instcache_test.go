package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// TestInstanceCacheInternAndEvict: LRU behavior of the intern cache,
// and the spec aliases that live and die with their entry.
func TestInstanceCacheInternAndEvict(t *testing.T) {
	c := newInstanceCache(2)
	entries := make([]*instanceEntry, 3)
	for i := range entries {
		g := graph.New(2)
		g.MustAddEdge(0, 1)
		entries[i] = &instanceEntry{key: RequestKey(fmt.Sprintf("k%d", i)), inst: &Instance{G: g, PathPos: []int{i % 2, (i + 1) % 2}}}
	}
	if got, hit := c.Intern(entries[0], "s0"); hit || got != entries[0] {
		t.Fatal("first intern should miss and return fresh")
	}
	again := &instanceEntry{key: entries[0].key, inst: entries[1].inst}
	if got, hit := c.Intern(again, "s0"); !hit || got != entries[0] {
		t.Fatal("second intern of same key should hit with the cached entry")
	}
	if got, ok := c.Lookup("s0"); !ok || got != entries[0] {
		t.Fatal("spec alias does not resolve to its entry")
	}
	c.Intern(entries[1], "s1")
	c.Intern(entries[2], "") // evicts entries[0], touched before entries[1]
	if c.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.Len())
	}
	if _, ok := c.Lookup("s0"); ok {
		t.Fatal("alias of an evicted entry still resolves")
	}
	if _, hit := c.Intern(entries[0], ""); hit {
		t.Fatal("evicted key still resident")
	}
	// An entry keeps the alias of the spec that last built it.
	c.Intern(entries[0], "s0b")
	if _, ok := c.Lookup("s0b"); !ok {
		t.Fatal("a second spec building the entry did not alias it")
	}
	if len(c.specs) > c.Len() {
		t.Fatalf("%d aliases for %d entries", len(c.specs), c.Len())
	}

	disabled := newInstanceCache(-1)
	if got, hit := disabled.Intern(entries[0], "s0"); hit || got != entries[0] || disabled.Len() != 0 {
		t.Fatal("a disabled cache must always pass fresh through")
	}
	if _, ok := disabled.Lookup("s0"); ok {
		t.Fatal("a disabled cache resolved an alias")
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

// specCounts reads the intern counters: misses (fresh insertions),
// hits (spec hits included) and spec hits.
func specCounts(s *Server) (misses, hits, specHits int64) {
	reg := s.Registry()
	return reg.Get("instance_cache_misses_total"), reg.Get("instance_cache_hits_total"), reg.Get("instance_spec_hits_total")
}

// TestSpecInterningRunsGeneratorOnce: one gen spec under three verifier
// seeds runs the generator once; the second and third requests find
// the instance by their spec, and every run's key and fingerprint
// equal those of a fresh build.
func TestSpecInterningRunsGeneratorOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"protocol":"planarity","seed":%d,"gen":{"family":"triangulation","n":64,"seed":3}}`, seed)
		resp, out := postCertifyAt(t, ts, "/v1/certify", body)
		if resp.StatusCode != http.StatusOK || !out.Accepted {
			t.Fatalf("seed %d: status %d, %+v", seed, resp.StatusCode, out)
		}
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		fresh, err := BuildInstance(&req)
		if err != nil {
			t.Fatal(err)
		}
		g := fresh.G
		if key := CanonicalKey(req.Protocol, req.Seed, g.N(), g.Edges(), fresh.PathPos, fresh.Rotation); out.Key != string(key) {
			t.Fatalf("seed %d: key %s, fresh build %s", seed, out.Key, key)
		}
		res, err := RunProtocol(context.Background(), req.Protocol, fresh, req.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Fingerprint != res.Fingerprint {
			t.Fatalf("seed %d: fingerprint %s, fresh build %s", seed, out.Fingerprint, res.Fingerprint)
		}
	}
	if misses, hits, specHits := specCounts(s); misses != 1 || hits != 2 || specHits != 2 {
		t.Fatalf("misses/hits/spec hits = %d/%d/%d, want 1/2/2", misses, hits, specHits)
	}
}

// TestSpecHitKeepsBuildErrors: once a spec is interned, the requests
// that fail to build from it still fail with 400 — one that also
// carries an inline graph, and one whose witness_pos is no permutation
// of the built instance — on both certify routes.
func TestSpecHitKeepsBuildErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := `"gen":{"family":"pathouter","n":16,"seed":2}`
	if resp, _ := postCertifyAt(t, ts, "/v1/certify", `{"protocol":"pathouter","seed":1,`+spec+`}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for name, body := range map[string]string{
		"both graph and gen": `{"protocol":"pathouter","seed":1,` + spec + `,"graph":{"n":2,"edges":[[0,1]]}}`,
		"bad witness_pos":    `{"protocol":"pathouter","seed":1,` + spec + `,"witness_pos":[0,1]}`,
	} {
		if resp, _ := postCertifyAt(t, ts, "/v1/certify", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: /v1/certify status %d, want 400", name, resp.StatusCode)
		}
		if resp, _ := postBatch(t, ts, "", `{"items":[`+body+`]}`); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: batch status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestSpecAliasesFollowTheCache: with interning disabled nothing is
// aliased and every request runs the generator; with capacity 2, a
// third spec evicts the first one's instance and with it its alias, so
// the first spec builds again.
func TestSpecAliasesFollowTheCache(t *testing.T) {
	body := func(genSeed, seed int) string {
		return fmt.Sprintf(`{"protocol":"pathouter","seed":%d,"gen":{"family":"pathouter","n":16,"seed":%d}}`, seed, genSeed)
	}
	off, offTS := newTestServer(t, Config{InstanceCacheCapacity: -1})
	for seed := 1; seed <= 2; seed++ {
		postCertifyAt(t, offTS, "/v1/certify", body(1, seed))
	}
	if misses, hits, specHits := specCounts(off); misses != 2 || hits != 0 || specHits != 0 || len(off.instances.specs) != 0 {
		t.Fatalf("disabled cache: misses/hits/spec hits = %d/%d/%d, %d aliases", misses, hits, specHits, len(off.instances.specs))
	}

	s, ts := newTestServer(t, Config{InstanceCacheCapacity: 2})
	for i, genSeed := range []int{1, 2, 3, 1} {
		if resp, _ := postCertifyAt(t, ts, "/v1/certify", body(genSeed, i)); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if misses, _, specHits := specCounts(s); misses != 4 || specHits != 0 {
		t.Fatalf("misses/spec hits = %d/%d, want 4/0: the evicted spec must rebuild", misses, specHits)
	}
	if len(s.instances.specs) != 2 {
		t.Fatalf("%d aliases for 2 entries", len(s.instances.specs))
	}
}

// TestSpecInterningConcurrent: concurrent requests for one spec may
// each build, but intern one instance: one miss, every other request a
// hit, every key equal.
func TestSpecInterningConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 8
	keys := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/certify", "application/json", strings.NewReader(
				fmt.Sprintf(`{"protocol":"pls","seed":%d,"gen":{"family":"pathouter","n":48,"seed":7}}`, i%2)))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out Response
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
			}
			keys[i] = out.Key
		}(i)
	}
	wg.Wait()
	for i := range keys {
		if keys[i] == "" || keys[i] != keys[i%2] {
			t.Fatalf("client %d key %q, client %d key %q", i, keys[i], i%2, keys[i%2])
		}
	}
	if misses, hits, _ := specCounts(s); misses != 1 || hits != clients-1 || s.instances.Len() != 1 {
		t.Fatalf("misses/hits = %d/%d, %d entries; want 1/%d, 1", misses, hits, s.instances.Len(), clients-1)
	}
}
