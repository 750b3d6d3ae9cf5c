package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/protocol"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postCertify(t *testing.T, ts *httptest.Server, body string) (*http.Response, *Response) {
	t.Helper()
	return postCertifyAt(t, ts, "/certify", body)
}

// postCertifyAt is postCertify against the certify route at path.
func postCertifyAt(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, *Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode 200 body: %v", err)
		}
	}
	return resp, &out
}

const k4Req = `{"protocol":"planarity","seed":1,"graph":{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}}`

func TestCertifyK4PlanarityAccepts(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCertify(t, ts, k4Req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !out.Accepted || out.ProverFailed {
		t.Fatalf("K4 planarity must accept: %+v", out)
	}
	if out.Nodes != 4 || out.Edges != 6 || out.Rounds == 0 || out.ProofSizeBits == 0 {
		t.Fatalf("implausible report: %+v", out)
	}
	if out.Fingerprint == "" || out.Key == "" {
		t.Fatalf("missing fingerprint/key: %+v", out)
	}
	if out.CacheHit {
		t.Fatal("first request cannot be a cache hit")
	}
}

func TestCertifyGenSpecAndCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := `{"protocol":"pathouter","seed":5,"gen":{"family":"pathouter","n":48,"seed":11}}`
	resp, first := postCertify(t, ts, req)
	if resp.StatusCode != http.StatusOK || !first.Accepted {
		t.Fatalf("gen pathouter run: status %d, %+v", resp.StatusCode, first)
	}
	if first.CacheHit {
		t.Fatal("first request reported a cache hit")
	}
	_, second := postCertify(t, ts, req)
	if !second.CacheHit {
		t.Fatal("identical request missed the cache")
	}
	if second.Fingerprint != first.Fingerprint || second.ProofSizeBits != first.ProofSizeBits {
		t.Fatalf("cached response diverged: %+v vs %+v", first, second)
	}
	if got := s.Registry().Get("cache_hits_total"); got != 1 {
		t.Fatalf("cache_hits_total = %d, want 1", got)
	}

	// A materialized gen spec and the equivalent inline edge list are
	// the same instance: same canonical key.
	_, ByEdges := postCertify(t, ts, `{"protocol":"pathouter","seed":5,"graph":{"n":3,"edges":[[2,1],[0,1]]}}`)
	_, byGenProxy := postCertify(t, ts, `{"protocol":"pathouter","seed":5,"graph":{"n":3,"edges":[[0,1],[1,2]]}}`)
	if ByEdges.Key != byGenProxy.Key || !byGenProxy.CacheHit {
		t.Fatalf("order-invariant keys diverged: %s vs %s (hit=%t)", ByEdges.Key, byGenProxy.Key, byGenProxy.CacheHit)
	}
}

// TestCertifyExplicitWitness: the centralized oracle cannot order a
// non-biconnected path-outerplanar graph, but an explicit witness_pos
// lets the honest prover run — and the witness is part of the cache
// key, so the witnessed and unwitnessed requests are distinct entries.
func TestCertifyExplicitWitness(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := `"graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,2]]}`
	_, bare := postCertify(t, ts, `{"protocol":"pathouter","seed":4,`+base+`}`)
	if !bare.ProverFailed {
		t.Fatalf("oracle unexpectedly ordered a non-biconnected graph: %+v", bare)
	}
	resp, out := postCertify(t, ts, `{"protocol":"pathouter","seed":4,"witness_pos":[0,1,2,3,4],`+base+`}`)
	if resp.StatusCode != http.StatusOK || !out.Accepted || out.ProverFailed {
		t.Fatalf("witnessed run: status %d, %+v", resp.StatusCode, out)
	}
	if out.Key == bare.Key {
		t.Fatal("witness did not perturb the cache key")
	}
	if out.CacheHit {
		t.Fatal("witnessed request must not hit the unwitnessed entry")
	}
}

func TestCertifyRejectsNoInstance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, out := postCertify(t, ts, `{"protocol":"planarity","seed":3,"gen":{"family":"k33sub","n":12,"seed":2}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Accepted {
		t.Fatalf("K3,3 subdivision certified planar: %+v", out)
	}
}

func TestCertifyDeterministicAcrossServers(t *testing.T) {
	_, ts1 := newTestServer(t, Config{})
	_, ts2 := newTestServer(t, Config{})
	req := `{"protocol":"outerplanar","seed":9,"gen":{"family":"outerplanar","n":40,"seed":4}}`
	_, a := postCertify(t, ts1, req)
	_, b := postCertify(t, ts2, req)
	if a.Fingerprint != b.Fingerprint || a.ProofSizeBits != b.ProofSizeBits || a.Accepted != b.Accepted {
		t.Fatalf("same request, different verdicts across servers:\n%+v\n%+v", a, b)
	}
}

func TestCertifyBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		wantCode   int
	}{
		{"unknown protocol", `{"protocol":"nope","seed":1,"graph":{"n":2,"edges":[[0,1]]}}`, 400},
		{"no instance", `{"protocol":"planarity","seed":1}`, 400},
		{"both instances", `{"protocol":"planarity","graph":{"n":2,"edges":[[0,1]]},"gen":{"family":"sp","n":8}}`, 400},
		{"self loop", `{"protocol":"planarity","graph":{"n":2,"edges":[[1,1]]}}`, 400},
		{"edge out of range", `{"protocol":"planarity","graph":{"n":2,"edges":[[0,5]]}}`, 400},
		{"duplicate edge", `{"protocol":"planarity","graph":{"n":3,"edges":[[0,1],[1,0]]}}`, 400},
		{"unknown field", `{"protocol":"planarity","portocol":"x","graph":{"n":2,"edges":[[0,1]]}}`, 400},
		{"unknown family", `{"protocol":"planarity","gen":{"family":"nope","n":8}}`, 400},
		{"witness wrong length", `{"protocol":"pathouter","graph":{"n":3,"edges":[[0,1],[1,2]]},"witness_pos":[0,1]}`, 400},
		{"witness not permutation", `{"protocol":"pathouter","graph":{"n":3,"edges":[[0,1],[1,2]]},"witness_pos":[0,0,1]}`, 400},
		{"not json", `edges: 0 1`, 400},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/certify", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.wantCode)
		}
		var e ErrorJSON
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s: error body missing: %v", tc.name, err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/certify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /certify: status %d, want 405", resp.StatusCode)
	}
}

func TestCertifyInstanceTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNodes: 8})
	resp, _ := postCertify(t, ts, `{"protocol":"pathouter","gen":{"family":"pathouter","n":64,"seed":1}}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestOversizeSpecRefusedBeforeGeneration: a gen spec that declares
// more nodes than MaxNodes is refused with 413 on both certify routes
// before its generator runs, so nothing reaches the intern cache.
func TestOversizeSpecRefusedBeforeGeneration(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxNodes: 8})
	spec := `{"protocol":"pathouter","gen":{"family":"pathouter","n":64,"seed":1}}`
	resp, err := http.Post(ts.URL+"/v1/certify", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("/v1/certify: status %d, want 413", resp.StatusCode)
	}
	if resp, _ := postBatch(t, ts, "", `{"items":[`+spec+`]}`); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("/v1/certify/batch: status %d, want 413", resp.StatusCode)
	}
	if misses := s.Registry().Get("instance_cache_misses_total"); misses != 0 {
		t.Fatalf("instance_cache_misses_total = %d, want 0", misses)
	}
}

// TestOversizeInlineItemRefusedBeforeBuilding: a batch item whose
// inline graph declares far more nodes than MaxNodes is refused before
// a graph of that size is allocated, so a small body cannot make the
// server allocate by its declared n.
func TestOversizeInlineItemRefusedBeforeBuilding(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNodes: 8})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, _ := postBatch(t, ts, "", `{"items":[{"protocol":"planarity","graph":{"n":4194304,"edges":[[0,1]]}}]}`)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	// A graph of 2^22 vertices costs 2^22 adjacency and port slices,
	// about 200 MB; the refusal itself allocates a few kilobytes.
	if got := after.TotalAlloc - before.TotalAlloc; got > 32<<20 {
		t.Fatalf("refusing the item allocated %d bytes", got)
	}
}

// TestOverbuiltSpecRefusedBeforeInterning: a family may build more
// vertices than its spec declares — the grid at n = 5 builds 6. The
// built instance is size-checked before it is interned or aliased, so
// the spec is refused every time.
func TestOverbuiltSpecRefusedBeforeInterning(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxNodes: 5})
	for i := 0; i < 2; i++ {
		resp, _ := postCertify(t, ts, `{"protocol":"planarity","gen":{"family":"grid","n":5,"seed":1}}`)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("request %d: status %d, want 413", i, resp.StatusCode)
		}
	}
	if n, aliases := s.instances.Len(), len(s.instances.specs); n != 0 || aliases != 0 {
		t.Fatalf("intern cache holds %d instances and %d aliases, want 0", n, aliases)
	}
}

// TestCertifyBackpressure429: with the single shard's worker blocked
// and its queue stuffed, a fresh request must bounce with 429 instead
// of queueing unboundedly.
func TestCertifyBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, QueueLen: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	if err := s.pool.Submit(RequestKey("block"), func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.pool.Submit(RequestKey("fill"), func() {}); err != nil {
		t.Fatal(err)
	}
	resp, _ := postCertify(t, ts, k4Req)
	close(release)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := s.Registry().Get("queue_full_total"); got != 1 {
		t.Fatalf("queue_full_total = %d, want 1", got)
	}
}

func TestCertifyDeadline504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// A 512-node planarity certification cannot finish in 1ms; the
	// between-round context checks must abort it and map to 504.
	resp, _ := postCertify(t, ts,
		`{"protocol":"planarity","seed":2,"timeout_ms":1,"gen":{"family":"triangulation","n":512,"seed":3}}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if got := s.Registry().Get("deadline_exceeded_total"); got != 1 {
		t.Fatalf("deadline_exceeded_total = %d, want 1", got)
	}
	// The aborted (possibly bogus) verdict must not have been cached:
	// rerunning with a generous deadline (the run takes a while under
	// -race) recomputes and accepts.
	resp2, out := postCertify(t, ts,
		`{"protocol":"planarity","seed":2,"timeout_ms":120000,"gen":{"family":"triangulation","n":512,"seed":3}}`)
	if resp2.StatusCode != http.StatusOK || !out.Accepted || out.CacheHit {
		t.Fatalf("post-timeout recompute: status %d, %+v", resp2.StatusCode, out)
	}
}

// TestCertifyUnknownProtocolListsRegistry: the 400 error body names the
// available protocols, sourced from the internal/protocol registry.
func TestCertifyUnknownProtocolListsRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/certify", "application/json",
		strings.NewReader(`{"protocol":"nope","seed":1,"graph":{"n":2,"edges":[[0,1]]}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, protocol.NameList()) {
		t.Fatalf("error %q does not list the registry names %q", e.Error, protocol.NameList())
	}
}

// TestCertifyRoundsMatchDescriptor: the rounds field of every /certify
// response is the registry descriptor's declared count, not a
// serve-layer literal.
func TestCertifyRoundsMatchDescriptor(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, req := range map[string]string{
		"planarity": k4Req,
		"pathouter": `{"protocol":"pathouter","seed":5,"gen":{"family":"pathouter","n":32,"seed":11}}`,
		"pls":       `{"protocol":"pls","seed":5,"gen":{"family":"pathouter","n":32,"seed":11}}`,
	} {
		d, ok := protocol.Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		resp, out := postCertify(t, ts, req)
		if resp.StatusCode != http.StatusOK || !out.Accepted {
			t.Fatalf("%s: status %d, %+v", name, resp.StatusCode, out)
		}
		if out.Rounds != d.Rounds {
			t.Errorf("%s: response rounds %d, descriptor declares %d", name, out.Rounds, d.Rounds)
		}
	}
}

// TestProtocolz: the descriptor listing matches the registry exactly.
func TestProtocolz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/protocolz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Protocols []ProtocolInfoJSON `json:"protocols"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if got, want := len(body.Protocols), len(protocol.Names()); got != want {
		t.Fatalf("%d protocols listed, registry has %d", got, want)
	}
	for _, row := range body.Protocols {
		d, ok := protocol.Get(row.Name)
		if !ok {
			t.Errorf("listed protocol %q is not registered", row.Name)
			continue
		}
		if row.Rounds != d.Rounds || row.Theorem != d.Theorem || row.Family != d.Family ||
			row.BoundExpr != d.BoundExpr || row.Witness != string(d.Witness) {
			t.Errorf("%s: listing %+v diverges from descriptor", row.Name, row)
		}
	}
	post, err := http.Post(ts.URL+"/protocolz", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /protocolz: status %d, want 405", post.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Status != "ok" {
		t.Fatalf("healthz body: %v %+v", err, body)
	}
}

func TestMetricszNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postCertify(t, ts, k4Req)
	postCertify(t, ts, k4Req) // second call hits the cache
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	counters := map[string]int64{}
	histograms := map[string]bool{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var row struct {
			Type  string `json:"type"`
			Name  string `json:"name"`
			Value int64  `json:"value"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", sc.Text(), err)
		}
		switch row.Type {
		case "counter", "gauge":
			counters[row.Name] = row.Value
		case "histogram":
			histograms[row.Name] = true
		default:
			t.Fatalf("unexpected row type %q", row.Type)
		}
	}
	for name, want := range map[string]int64{
		"requests_total":                     2,
		"requests_total{protocol=planarity}": 2,
		"cache_hits_total":                   1,
		"cache_misses_total":                 1,
		"responses_total{code=200}":          2,
	} {
		if counters[name] != want {
			t.Errorf("%s = %d, want %d (all: %v)", name, counters[name], want, counters)
		}
	}
	// The obs registry counters from the traced run ride along.
	if counters["runs_total"] == 0 {
		t.Errorf("runs_total missing from /metricsz: %v", counters)
	}
	if counters["cache_entries"] != 1 {
		t.Errorf("cache_entries gauge = %d, want 1", counters["cache_entries"])
	}
	for _, name := range []string{
		"certify_stage_ns{stage=run}",
		"certify_stage_ns{stage=queue_wait}",
		"http_request_duration_ns{path=/certify}",
	} {
		if !histograms[name] {
			t.Errorf("histogram %s missing from /metricsz (have %v)", name, histograms)
		}
	}
}
