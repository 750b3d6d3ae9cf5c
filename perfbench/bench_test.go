package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dip"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {11, 2}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	// 1,000 samples: p99 is the 990th value, so ten lie beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailPercentileNeedsAThousandOperations(t *testing.T) {
	sorted := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		p      float64
		n      int
		want   float64
		wantOK bool
	}{
		{99, 1, 0, false}, {99, 999, 0, false}, {99, 1000, 990, true}, {99, 50000, 49500, true},
		// bulk-large's median tail has no minimum.
		{50, 1, 1, true}, {50, 15, 8, true},
	} {
		got, err := tailMillis(sorted(c.n), c.p)
		if (err == nil) != c.wantOK || got != c.want {
			t.Errorf("tailMillis(p%v, %d ops) = %v, %v; want %v, ok=%v", c.p, c.n, got, err, c.want, c.wantOK)
		}
	}
	// The percentile is fixed per workload, not chosen from the count.
	for name, want := range map[string]float64{"hit-inline": 99, "fresh-durable": 99, "bulk-large": 50} {
		wl, err := newWorkload(name, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if wl.tailP != want {
			t.Errorf("%s tail percentile = %v, want %v", name, wl.tailP, want)
		}
	}
}

func TestProcStatCPUFields(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime=1234 and
	// stime=567 are fields 14 and 15.
	stat := "4242 (dip serve) (x)) S 1 4242 4242 0 -1 4194560 3000 0 0 0 1234 567 0 0 20 0 9 0 100 1000000 2500 18446744073709551615\n"
	got, err := procCPUTicks([]byte(stat))
	if err != nil || got != 1801 {
		t.Fatalf("procCPUTicks = %d, %v; want 1801", got, err)
	}
	if _, err := procCPUTicks([]byte("4242 (dipserve) S 1 2")); err == nil {
		t.Error("short stat line accepted")
	}
	if _, err := procCPUTicks([]byte("no parens here")); err == nil {
		t.Error("stat line without a command field accepted")
	}
}

func TestStatusVmHWM(t *testing.T) {
	status := "Name:\tdipserve\nVmPeak:\t 1300000 kB\nVmHWM:\t   96256 kB\nVmRSS:\t   90000 kB\n"
	got, err := statusKB([]byte(status), "VmHWM")
	if err != nil || got != 96256 {
		t.Fatalf("VmHWM = %d, %v; want 96256", got, err)
	}
	if _, err := statusKB([]byte("Name:\tx\n"), "VmHWM"); err == nil {
		t.Error("missing VmHWM accepted")
	}
	if _, err := statusKB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("VmHWM in the wrong unit accepted")
	}
}

func TestProcStatSteal(t *testing.T) {
	stat := "cpu  10 20 30 40 50 60 70 880 0 0\ncpu0 1 2 3 4 5 6 7 440 0 0\n"
	got, err := stealTicks([]byte(stat))
	if err != nil || got != 880 {
		t.Fatalf("steal = %d, %v; want 880", got, err)
	}
}

// honestResponse certifies r in process and returns the response body
// dipserve would send, with the given cache_hit.
func honestResponse(t *testing.T, r *request, hit bool) []byte {
	t.Helper()
	var req serve.Request
	if err := json.Unmarshal(r.body, &req); err != nil {
		t.Fatal(err)
	}
	inst, err := serve.BuildInstance(&req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serve.RunProtocol(context.Background(), req.Protocol, inst, req.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(serve.Response{
		Protocol: req.Protocol, Nodes: inst.G.N(), Edges: inst.G.M(), Seed: req.Seed,
		Accepted: res.Accepted, Rounds: res.Rounds, ProofSizeBits: res.ProofSizeBits,
		Fingerprint: res.Fingerprint, CacheHit: hit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// doctor rewrites one field of a JSON response body.
func doctor(t *testing.T, body []byte, field string, v any) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	m[field] = v
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestChecksRejectDoctoredResponses(t *testing.T) {
	r, err := inlineRequest("pathouter", 64, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	hit := honestResponse(t, r, true)
	cr, err := checkResponse(r, 200, hit, true, "")
	if err != nil {
		t.Fatalf("honest response rejected: %v", err)
	}
	fp := cr.Fingerprint
	if _, err := checkResponse(r, 200, hit, true, fp); err != nil {
		t.Fatalf("honest response rejected with its fingerprint: %v", err)
	}
	for _, c := range []struct {
		name    string
		status  int
		body    []byte
		wantHit bool
		wantFP  string
	}{
		{"flipped verdict", 200, doctor(t, hit, "accepted", false), true, fp},
		{"proof size over the bound", 200, doctor(t, hit, "proof_size_bits", 1<<20), true, fp},
		{"wrong rounds", 200, doctor(t, hit, "rounds", 2), true, fp},
		{"wrong fingerprint", 200, doctor(t, hit, "fingerprint", "0123456789abcdef"), true, fp},
		{"cache_hit false on hit-inline", 200, doctor(t, hit, "cache_hit", false), true, fp},
		{"cache hit on a fresh workload", 200, hit, false, ""},
		{"status 429", 429, hit, true, fp},
	} {
		if _, err := checkResponse(r, c.status, c.body, c.wantHit, c.wantFP); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestInputsDeriveFromSeed(t *testing.T) {
	bodies := func(seed int64) [][]byte {
		var out [][]byte
		hit, err := hitInline(seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*hitCount; i++ {
			out = append(out, hit.timed(i).body)
		}
		fresh, err := freshDurable(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			out = append(out, fresh.timed(i).body)
		}
		bulk, err := bulkLarge(seed)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, bulk.setup[0].body, bulk.timed(0).body, bulk.timed(1).body)
	}
	a, b, c := bodies(5), bodies(5), bodies(6)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d differs between two generations from one seed", i)
		}
		// The server sees only a certify request: no workload name, no
		// field outside serve.Request.
		dec := json.NewDecoder(bytes.NewReader(a[i]))
		dec.DisallowUnknownFields()
		var req serve.Request
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("request %d is not a plain certify request: %v", i, err)
		}
		for _, w := range workloadNames {
			if strings.Contains(string(a[i]), w) {
				t.Fatalf("request %d names workload %s", i, w)
			}
		}
	}
	same := 0
	for i := range a {
		if bytes.Equal(a[i], c[i]) {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d requests identical across seeds 5 and 6", same)
	}
}

func TestHistoryIsByteIdenticalPerSeed(t *testing.T) {
	dir := t.TempDir()
	read := func(d string) map[string][]byte {
		out := map[string][]byte{}
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(d, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
		return out
	}
	for _, name := range []string{"a", "b", "c"} {
		seed := int64(3)
		if name == "c" {
			seed = 4
		}
		if err := buildHistory(filepath.Join(dir, name), seed, 300); err != nil {
			t.Fatal(err)
		}
	}
	a, b, c := read(filepath.Join(dir, "a")), read(filepath.Join(dir, "b")), read(filepath.Join(dir, "c"))
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("history file sets differ: %d vs %d", len(a), len(b))
	}
	for name, content := range a {
		if !bytes.Equal(content, b[name]) {
			t.Errorf("%s differs between two histories from one seed", name)
		}
	}
	for name, content := range a {
		if bytes.Equal(content, c[name]) {
			t.Errorf("%s identical across seeds", name)
		}
	}
}

func TestAuditCertificate(t *testing.T) {
	srv, err := serve.New(serve.Config{LedgerBatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(1)

	r, err := inlineRequest("pls", 64, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	status, body, _, err := certify(c, ts.URL, r.body)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := checkResponse(r, status, body, false, "")
	if err != nil {
		t.Fatal(err)
	}
	s := sample{key: cr.Key, fp: cr.Fingerprint}
	if err := auditCertificate(c, ts.URL, s); err != nil {
		t.Fatalf("honest certificate rejected: %v", err)
	}
	s.fp = "0000000000000000"
	if err := auditCertificate(c, ts.URL, s); err == nil {
		t.Error("certificate accepted for a response it does not restate")
	}
}

func TestClosedLoopChecksEveryResponse(t *testing.T) {
	srv, err := serve.New(serve.Config{LedgerBatchSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(2)

	var set []*request
	for i := 0; i < 4; i++ {
		r, err := inlineRequest("pls", 32+i, int64(i), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		set = append(set, r)
	}
	for _, r := range set { // warm the cache: the loop expects hits
		if _, _, _, err := certify(c, ts.URL, r.body); err != nil {
			t.Fatal(err)
		}
	}
	cpu, err := readProcCPUTicks(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ws := &windower{pid: os.Getpid(), last: start, lastCPU: cpu}
	judge := func(r *request, status int, body []byte) (*certifyResp, error) {
		return checkResponse(r, status, body, true, "")
	}
	samples, err := closedLoop(c, ts.URL, 2, start.Add(1500*time.Millisecond), 0,
		func(i int) *request { return set[i%len(set)] }, judge, ws.done)
	if err != nil || ws.err != nil {
		t.Fatal(err, ws.err)
	}
	if len(samples) == 0 || len(ws.windows) == 0 {
		t.Fatalf("%d samples, %d windows", len(samples), len(ws.windows))
	}
	for i, s := range samples {
		if s.idx != i {
			t.Fatalf("sample %d has index %d: indices must be 0..n-1 in order", i, s.idx)
		}
		if s.err != nil || s.reqID == "" {
			t.Fatalf("sample %d: err=%v request id %q", i, s.err, s.reqID)
		}
	}
	// A request the loop would fail: a miss where the workload wants hits.
	fresh, err := inlineRequest("pls", 40, 99, 99)
	if err != nil {
		t.Fatal(err)
	}
	samples, err = closedLoop(c, ts.URL, 1, time.Now().Add(time.Second), 1,
		func(int) *request { return fresh }, judge, nil)
	if len(samples) != 1 || samples[0].err == nil {
		t.Fatalf("a cache miss passed the hit check: %+v", samples)
	}
	if err == nil {
		t.Error("a one-request pool was not reported as exhausted")
	}
}

func TestStderrLogFindsAddressAcrossWrites(t *testing.T) {
	l := &stderrLog{addr: make(chan string, 1)}
	for _, chunk := range []string{"dipserve: listen", "ing on 127.0.0.1:4", "321\nnext line\npartial"} {
		if _, err := l.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case a := <-l.addr:
		if a != "127.0.0.1:4321" {
			t.Fatalf("address %q", a)
		}
	default:
		t.Fatal("no address forwarded")
	}
	if got := l.tail(); got != "dipserve: listening on 127.0.0.1:4321 | next line" {
		t.Fatalf("tail %q", got)
	}
}

func TestEngineTracerAccountsEveryRun(t *testing.T) {
	r, err := inlineRequest("planarity", 40, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	var req serve.Request
	if err := json.Unmarshal(r.body, &req); err != nil {
		t.Fatal(err)
	}
	inst, err := serve.BuildInstance(&req)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := protocol.Get("planarity")
	rec := &recorder{t0: time.Now()}
	et := &engineTracer{rec: rec}
	if _, err := d.Run(context.Background(), inst, req.Seed, dip.WithTracer(et)); err != nil {
		t.Fatal(err)
	}
	if et.runs == 0 || et.prover <= 0 || et.engineWall <= 0 {
		t.Fatalf("runs=%d prover=%d wall=%d", et.runs, et.prover, et.engineWall)
	}
	if got := et.prover + et.coins + et.decide; got != et.engineWall {
		t.Errorf("prover+coins+decide = %d ns, engine runs took %d ns", got, et.engineWall)
	}
	if len(et.open) != 0 || len(rec.open) != 0 {
		t.Errorf("unbalanced spans: %d tracer, %d recorder still open", len(et.open), len(rec.open))
	}
	// The event replay behind obs.fingerprint_ms digests the same
	// fingerprint serve.RunProtocol reports.
	c := obs.NewCollect()
	for _, e := range et.events {
		c.Emit(e)
	}
	h := fnv.New64a()
	h.Write([]byte(c.Fingerprint()))
	res, err := serve.RunProtocol(context.Background(), req.Protocol, inst, req.Seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != res.Fingerprint {
		t.Errorf("replayed events fingerprint %s, RunProtocol %s", got, res.Fingerprint)
	}
}

func TestAccessLogJoinAndMetricsDeltas(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "access.ndjson")
	f, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv, err := serve.New(serve.Config{AccessLog: f})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := newClient(1)

	before, err := scrapeMetrics(c, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	r, err := inlineRequest("outerplanar", 48, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 2; i++ { // a miss, then a hit
		status, body, id, err := certify(c, ts.URL, r.body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkResponse(r, status, body, i == 1, ""); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		ids = append(ids, id)
	}
	after, err := scrapeMetrics(c, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := before.delta(after, "cache_hits_total"), before.delta(after, "cache_misses_total"); h != 1 || m != 1 {
		t.Errorf("metricsz deltas: %v hits, %v misses; want 1 and 1", h, m)
	}
	if _, ok := after.hists["certify_stage_ns{stage=admission}"]; !ok {
		t.Error("metricsz histograms not parsed")
	}
	rows, err := readAccessLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	miss, hit := rows[ids[0]], rows[ids[1]]
	if miss.DurMS <= 0 || hit.DurMS <= 0 {
		t.Fatalf("access log rows missing for ids %v: %+v", ids, rows)
	}
	if _, ok := miss.Stages["queue_wait"]; !ok {
		t.Errorf("miss row has no queue_wait stage: %v", miss.Stages)
	}
	if _, ok := hit.Stages["queue_wait"]; ok {
		t.Errorf("hit row has a queue_wait stage: %v", hit.Stages)
	}
	if _, ok := hit.Stages["admission"]; !ok {
		t.Errorf("hit row has no admission stage: %v", hit.Stages)
	}
}
