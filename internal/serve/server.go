package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Config sizes the service. Zero values take the documented defaults.
type Config struct {
	// Shards is the worker-pool shard count (default 4).
	Shards int
	// WorkersPerShard is the worker count per shard (default
	// max(1, GOMAXPROCS/Shards)).
	WorkersPerShard int
	// QueueLen bounds each shard's pending-job queue (default 64).
	// A full queue turns into HTTP 429, not memory growth.
	QueueLen int
	// CacheCapacity bounds the LRU result cache (default 1024 entries;
	// negative disables caching, singleflight dedup stays on).
	CacheCapacity int
	// InstanceCacheCapacity bounds the frozen-instance intern cache:
	// requests describing the same instance (any protocol, any seed)
	// share one materialized, once-frozen instance (default 128
	// entries; negative disables interning).
	InstanceCacheCapacity int
	// DefaultTimeout bounds a request that names no timeout_ms
	// (default 30s); a request may ask for at most 2 minutes.
	DefaultTimeout time.Duration
	// MaxNodes / MaxEdges reject oversized instances with 413
	// (defaults 1<<20 nodes, 1<<22 edges).
	MaxNodes int
	MaxEdges int
	// Registry receives service and run counters; nil allocates a
	// private one (exposed at /metricsz either way).
	Registry *obs.Registry
	// AccessLog receives one NDJSON row per request (schema in
	// SERVICE.md); nil disables access logging.
	AccessLog io.Writer

	// Async batch settings (POST /v1/certify/batch, GET /v1/jobs/{id}).
	// BatchEpochInterval is the epoch coordinator's admission period
	// (default 25ms); BatchMaxItems caps one epoch's admissions and is
	// the early-flush threshold (default 256).
	BatchEpochInterval time.Duration
	BatchMaxItems      int
	// BatchQuantum is the deficit-round-robin credit per tenant per
	// admission round (default 8); TenantInFlight caps one tenant's
	// concurrently admitted items (default 16); TenantQueueCap bounds
	// one tenant's queued items, beyond which submissions shed with 429
	// (default 4096).
	BatchQuantum   int
	TenantInFlight int
	TenantQueueCap int
	// MaxBatchItems bounds the item count of one batch request
	// (default 512).
	MaxBatchItems int
	// JobRetention is how long a finished job stays pollable before TTL
	// eviction (default 5m); MaxJobs bounds tracked jobs (default 1024).
	JobRetention time.Duration
	MaxJobs      int
	// MaxWait caps the ?wait= long-poll duration on /v1/jobs/{id}
	// (default 30s).
	MaxWait time.Duration

	// Certificate ledger settings (GET /v1/certificates, /v1/ledger/rootz).
	// LedgerDir selects the append-only on-disk backend, replayed and
	// integrity-verified on boot; empty means the in-memory store (the
	// ledger works, but does not survive a restart).
	LedgerDir string
	// LedgerBatchSize seals a Merkle batch once that many verdicts are
	// pending (default 64; 1 seals every append immediately). Negative
	// disables the ledger entirely — the certificate routes answer 503.
	LedgerBatchSize int
	// LedgerFlushInterval seals a quiet tail on a timer so entries do
	// not sit pending (= proofless) indefinitely under low traffic
	// (default 2s; negative disables the timer — entries seal on size
	// or on Close only).
	LedgerFlushInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = runtime.GOMAXPROCS(0) / c.Shards
		if c.WorkersPerShard < 1 {
			c.WorkersPerShard = 1
		}
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 64
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 1024
	}
	if c.InstanceCacheCapacity == 0 {
		c.InstanceCacheCapacity = 128
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 20
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1 << 22
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.BatchEpochInterval <= 0 {
		c.BatchEpochInterval = 25 * time.Millisecond
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 512
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 5 * time.Minute
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	if c.LedgerBatchSize == 0 {
		c.LedgerBatchSize = 64
	}
	if c.LedgerFlushInterval == 0 {
		c.LedgerFlushInterval = 2 * time.Second
	}
	return c
}

// maxTimeout caps the deadline a request's timeout_ms may ask for, and
// bounds a batch job that names none.
const maxTimeout = 2 * time.Minute

// readySaturation is the fullest-shard queue occupancy above which
// /v1/readyz reports not-ready.
const readySaturation = 0.9

// capTimeout returns the deadline a request's timeout_ms asks for,
// capped at maxTimeout, or def when it asks for none (ms <= 0). It
// compares milliseconds before it multiplies, so a value too large for
// a time.Duration caps instead of overflowing into a negative deadline.
func capTimeout(ms int64, def time.Duration) time.Duration {
	switch {
	case ms <= 0:
		return def
	case ms >= maxTimeout.Milliseconds():
		return maxTimeout
	}
	return time.Duration(ms) * time.Millisecond
}

// GraphJSON is the inline-graph form of a request: n vertices, edges as
// [u, v] pairs in any order and orientation.
type GraphJSON struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// GenSpecJSON asks the server to materialize a generator family
// instance instead of shipping edges. ChordProb nil means the family
// default.
type GenSpecJSON struct {
	Family    string   `json:"family"`
	N         int      `json:"n"`
	ChordProb *float64 `json:"chord_prob,omitempty"`
	Delta     int      `json:"delta,omitempty"`
	Seed      int64    `json:"seed"`
}

// Request is the /certify request body. Exactly one of Graph and Gen
// must be set. It decodes by hand (UnmarshalJSON, wire.go), refusing
// unknown fields even through a plain json.Unmarshal.
type Request struct {
	Protocol string       `json:"protocol"`
	Seed     int64        `json:"seed"`
	Graph    *GraphJSON   `json:"graph,omitempty"`
	Gen      *GenSpecJSON `json:"gen,omitempty"`
	// WitnessPos is the prover's Hamiltonian-path witness for the
	// pathouter and pls protocols (witness_pos[v] = position of v on
	// the path; must be a permutation of 0..n-1). Omitted, the honest
	// prover derives one itself, which only succeeds on biconnected
	// outerplanar graphs and bare paths; gen-spec pathouter instances
	// carry the generator's witness automatically.
	WitnessPos []int `json:"witness_pos,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped at the server's 2-minute maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Response is the /certify response body. Its per-call fields come
// last, so that its JSON is a fixed prefix, which a cache entry keeps,
// plus those fields (writeResponse).
type Response struct {
	Protocol string `json:"protocol"`
	// Key is the canonical request hash (the cache key).
	Key   string `json:"key"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	Seed  int64  `json:"seed"`

	Accepted      bool `json:"accepted"`
	ProverFailed  bool `json:"prover_failed,omitempty"`
	Rounds        int  `json:"rounds"`
	ProofSizeBits int  `json:"proof_size_bits"`
	TotalBits     int  `json:"total_label_bits,omitempty"`
	MaxCoinBits   int  `json:"max_coin_bits,omitempty"`

	Fingerprint string      `json:"fingerprint"`
	RoundStats  []RoundStat `json:"round_stats,omitempty"`

	// CacheHit / Shared report how this particular call was served:
	// from the LRU store, or by waiting on a concurrent identical
	// request. WallNS is this call's service time.
	CacheHit bool  `json:"cache_hit"`
	Shared   bool  `json:"shared,omitempty"`
	WallNS   int64 `json:"wall_ns"`
}

// Server is the certification service. Create with New, expose via
// Handler, release with Close.
type Server struct {
	cfg       Config
	pool      *Pool
	cache     *Cache
	instances *instanceCache
	batch     *batch.Manager[*Response]
	reg       *obs.Registry
	mux       *http.ServeMux
	handler   http.Handler // mux wrapped in the per-request middleware
	access    *accessLogger
	nextReqID atomic.Uint64
	// spec is the route table (routes.go): registration source and the
	// /v1/specz body. ledger is the certificate ledger, nil when
	// disabled; ledgerAppends is its pre-resolved append counter.
	spec          []RouteJSON
	ledger        *ledger.Ledger
	ledgerAppends obs.CounterHandle
	// Pre-resolved metric handles for the per-request hot path
	// (initMetricHandles); keys are route patterns, outcome classes,
	// and stage names respectively.
	durPath   map[string]obs.HistogramHandle
	outcome   map[string]obs.CounterHandle
	stageHist map[string]obs.HistogramHandle
	// protoCount pre-resolves requests_total{protocol=...} for every
	// registered protocol.
	protoCount map[string]obs.CounterHandle
}

// New opens the certificate ledger (replaying and verifying any
// persisted history, then warming the result cache from it), starts
// the worker pool, and returns a ready server. The error is the
// ledger's: a corrupt or tampered on-disk history refuses to serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		pool:      NewPool(cfg.Shards, cfg.WorkersPerShard, cfg.QueueLen),
		cache:     NewCache(cfg.CacheCapacity),
		instances: newInstanceCache(cfg.InstanceCacheCapacity),
		reg:       cfg.Registry,
		mux:       http.NewServeMux(),
	}
	// The batch manager coordinates async jobs; each admitted item's Run
	// closure routes through the same cache/singleflight/pool path as
	// synchronous certify, so batches deduplicate against interactive
	// traffic and against each other. The job deadline defaults to
	// maxTimeout: a batch bounds many items, not one run.
	s.batch = batch.NewManager[*Response](batch.Config{
		EpochInterval:  cfg.BatchEpochInterval,
		EpochMaxItems:  cfg.BatchMaxItems,
		Quantum:        cfg.BatchQuantum,
		TenantInFlight: cfg.TenantInFlight,
		TenantQueueCap: cfg.TenantQueueCap,
		DefaultTimeout: maxTimeout,
		Retention:      cfg.JobRetention,
		MaxJobs:        cfg.MaxJobs,
		Registry:       cfg.Registry,
	})
	// The ledger opens before the routes so a corrupt on-disk history
	// fails construction instead of serving unverifiable certificates.
	if err := s.setupLedger(cfg); err != nil {
		s.batch.Close()
		s.pool.Close()
		return nil, err
	}
	// The route table (routes.go) is the registration source: every
	// handler mounts behind the table's method gate (enforceMethods),
	// everything unversioned additionally goes through the legacy
	// wrapper (deprecation headers + drain counters), and the same
	// table serves /v1/specz — the mux and the spec cannot drift.
	// Paths the table does not mount fall through to the enveloped 404
	// handler, so every non-2xx body is an ErrorJSON.
	s.spec = s.routes()
	patterns := make([]string, 0, len(s.spec))
	for _, rt := range s.spec {
		patterns = append(patterns, rt.Pattern)
		h := s.enforceMethods(rt)
		if !strings.HasPrefix(rt.Pattern, "/v1/") {
			h = s.legacy(rt, h)
		}
		s.mux.HandleFunc(rt.Pattern, h)
	}
	s.mux.HandleFunc("/", s.handleNotFound)
	s.initMetricHandles(patterns)
	s.protoCount = make(map[string]obs.CounterHandle)
	for _, d := range protocol.All() {
		s.protoCount[d.Name] = s.reg.Counter("requests_total{protocol=" + d.Name + "}")
	}
	s.handler = s.instrument(s.mux)
	s.access = newAccessLogger(cfg.AccessLog)

	// Engine worker-pool scheduling counters (busy/steal/idle, chunk and
	// batch totals) ride along on the same registry as scrape-time gauges.
	dip.RegisterPoolMetrics(s.reg)

	// Scrape-time gauges: pool and cache state is read at snapshot time
	// via callbacks, so the serving hot path never writes them.
	s.reg.SetGaugeFunc("in_flight", s.pool.InFlight)
	s.reg.SetGaugeFunc("cache_entries", func() int64 { return int64(s.cache.Len()) })
	s.reg.SetGaugeFunc("instance_cache_entries", func() int64 { return int64(s.instances.Len()) })
	s.reg.SetGauge("pool_shards", int64(s.pool.Shards()))
	s.reg.SetGaugeFunc("queue_depth", func() int64 {
		var total int64
		for sh := 0; sh < s.pool.Shards(); sh++ {
			total += int64(s.pool.QueueDepth(sh))
		}
		return total
	})
	for sh := 0; sh < s.pool.Shards(); sh++ {
		sh := sh
		s.reg.SetGaugeFunc(fmt.Sprintf("queue_depth{shard=%d}", sh),
			func() int64 { return int64(s.pool.QueueDepth(sh)) })
	}

	// Warm start: the persisted verdicts become cache hits immediately.
	s.replayLedgerIntoCache()
	return s, nil
}

// Handler returns the HTTP handler serving the /v1 API (certify,
// healthz, readyz, metricsz, protocolz, soundness) plus the deprecated
// unversioned aliases, wrapped in the per-request middleware (request
// ids, latency histograms, outcome counters, optional access log).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry returns the counter registry backing /metricsz.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close shuts the batch manager (cancels outstanding jobs, unblocks
// long-polls), drains the worker pool, and finally closes the ledger —
// after the pool, so every verdict an in-flight request produced gets
// appended and the tail batch seals durably. Subsequent submissions
// fail with ErrPoolClosed (HTTP 503).
func (s *Server) Close() {
	s.batch.Close()
	s.pool.Close()
	if s.ledger != nil {
		s.ledger.Close()
	}
}

// maxRetryAfterSecs caps the Retry-After hint on shed responses.
const maxRetryAfterSecs = 8

// retryAfterSecs derives the Retry-After hint sent with 429 responses
// from how saturated the service actually is: the mean queue occupancy
// across shards plus the batch backlog scale the hint from 1s (one
// shard briefly full) toward maxRetryAfterSecs (everything deep in
// backlog), so clients back off proportionally instead of stampeding
// on a fixed interval.
func (s *Server) retryAfterSecs() int {
	var queued float64
	for sh := 0; sh < s.pool.Shards(); sh++ {
		queued += float64(s.pool.QueueDepth(sh))
	}
	occ := queued / float64(s.pool.Shards()*s.pool.QueueCap())
	if pending := s.reg.Gauge("batch_pending"); pending > 0 {
		// Pending batch items drain through the same workers; a full
		// epoch's worth of backlog weighs like a fully occupied queue.
		extra := float64(pending) / float64(s.cfg.BatchMaxItems)
		if extra > 1 {
			extra = 1
		}
		occ += extra
	}
	if occ > 1 {
		occ = 1
	}
	secs := 1 + int(occ*float64(maxRetryAfterSecs-1)+0.5)
	if secs > maxRetryAfterSecs {
		secs = maxRetryAfterSecs
	}
	return secs
}

// handleHealthz is pure liveness: the process is up and serving. Probes
// that should stop routing traffic under load belong on /v1/readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReadyz is readiness: 200 while the worker queues have headroom,
// 503 once the fullest shard passes readySaturation (new work is
// about to be shed with 429) — load balancers should drain, liveness
// probes should NOT use this path.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sat := s.pool.Saturation()
	ready := sat < readySaturation
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{
		"ready":            ready,
		"queue_saturation": sat,
		"in_flight":        s.pool.InFlight(),
	})
}

// handleMetricsz streams the registry snapshot — counters, gauges, and
// latency histograms with p50/p90/p99 — as NDJSON rows (the dipbench
// summary row shape; schema in OBSERVABILITY.md), or as Prometheus text
// exposition when the client asks via ?format=prometheus or an Accept
// header preferring text/plain.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain") {
		format = "prometheus"
	}
	switch format {
	case "", "ndjson":
		w.Header().Set("Content-Type", "application/x-ndjson")
		s.reg.WriteNDJSON(w)
	case "prometheus", "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w)
	default:
		s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "unknown format %q (have ndjson, prometheus)", format)
	}
}

// ProtocolInfoJSON is one row of the /protocolz response: a registered
// protocol's descriptor metadata.
type ProtocolInfoJSON struct {
	Name      string `json:"name"`
	Theorem   string `json:"theorem"`
	Suite     string `json:"suite,omitempty"`
	Summary   string `json:"summary,omitempty"`
	Family    string `json:"family"`
	Witness   string `json:"witness"`
	Rounds    int    `json:"rounds"`
	BoundExpr string `json:"proof_size_bound"`
}

// handleProtocolz lists the registered protocols with their descriptor
// metadata, straight from the internal/protocol registry, and
// cross-links the full machine-readable API surface at /v1/specz.
func (s *Server) handleProtocolz(w http.ResponseWriter, r *http.Request) {
	descs := protocol.All()
	rows := make([]ProtocolInfoJSON, 0, len(descs))
	for _, d := range descs {
		rows = append(rows, ProtocolInfoJSON{
			Name:      d.Name,
			Theorem:   d.Theorem,
			Suite:     d.Suite,
			Summary:   d.Summary,
			Family:    d.Family,
			Witness:   string(d.Witness),
			Rounds:    d.Rounds,
			BoundExpr: d.BoundExpr,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"protocols": rows, "spec_url": "/v1/specz"})
}

// BuildInstance materializes a request's instance, from the inline
// edge list or the generator spec, plus the witnesses the run should
// use: the request's explicit witness_pos, or the generator's own
// witnesses (the pathouter position vector, the embedded families'
// rotation system). Errors are client errors (400-class). Exported for
// out-of-process replay (cmd/dipcert re-runs a certificate's request
// locally and confronts the ledger's verdict with the fresh one).
func BuildInstance(req *Request) (*Instance, error) {
	inst := &Instance{PathPos: req.WitnessPos}
	switch {
	case req.Graph != nil && req.Gen != nil:
		return nil, errors.New("request has both graph and gen; pick one")
	case req.Graph != nil:
		gj := req.Graph
		if gj.N < 2 {
			return nil, fmt.Errorf("graph.n = %d, need >= 2", gj.N)
		}
		g := graph.New(gj.N)
		for _, e := range gj.Edges {
			if err := g.AddEdge(e[0], e[1]); err != nil {
				return nil, err
			}
		}
		inst.G = g
	case req.Gen != nil:
		spec := gen.FamilySpec{Family: req.Gen.Family, N: req.Gen.N, ChordProb: -1, Delta: req.Gen.Delta}
		if req.Gen.ChordProb != nil {
			spec.ChordProb = *req.Gen.ChordProb
		}
		g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(req.Gen.Seed)))
		if err != nil {
			return nil, err
		}
		inst.G = g
		inst.Rotation = rot
		if inst.PathPos == nil {
			inst.PathPos = pos
		}
	default:
		return nil, errors.New("request needs a graph or a gen spec")
	}
	if req.WitnessPos != nil {
		if err := checkPermutation(req.WitnessPos, inst.G.N()); err != nil {
			return nil, fmt.Errorf("bad witness_pos: %w", err)
		}
	}
	return inst, nil
}

// internInstance swaps a freshly built instance for the cached one
// when an identical instance (same graph and witnesses, any protocol,
// any seed) is already interned, and makes spec, unless empty, alias
// it. The result cache deduplicates exact request repeats; interning
// deduplicates the expensive part — materialization and the
// once-per-instance dense freeze — across requests that differ only in
// protocol or seed. canon is inst.G's canonical edge list when the
// caller has it already (canonEdges), nil to sort it here.
func (s *Server) internInstance(inst *Instance, canon []uint64, spec specKey) *instanceEntry {
	if canon == nil {
		canon = canonOf(inst.G.Edges())
	}
	key := keyFromCanon(instanceKeyProtocol, 0, inst.G.N(), canon, inst.PathPos, inst.Rotation)
	interned, hit := s.instances.Intern(&instanceEntry{key: key, inst: inst, canon: canon}, spec)
	if hit {
		s.reg.Add("instance_cache_hits_total", 1)
	} else {
		s.reg.Add("instance_cache_misses_total", 1)
	}
	return interned
}

// tooLarge refuses, with 413, an instance of n nodes and m edges over
// the configured limits. prefix names the batch item, if any.
func (s *Server) tooLarge(w http.ResponseWriter, r *http.Request, prefix string, n, m int) bool {
	if n <= s.cfg.MaxNodes && m <= s.cfg.MaxEdges {
		return false
	}
	s.fail(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
		"%sinstance too large: n=%d m=%d (limits n<=%d m<=%d)", prefix, n, m, s.cfg.MaxNodes, s.cfg.MaxEdges)
	return true
}

// admitBuilt builds, size-checks and interns the instance of req, or
// refuses it and returns nil. A request that declares more than
// MaxNodes is refused before anything is allocated for its graph or its
// generator runs; some families build more vertices than asked, so the
// built instance is checked too. A gen spec (with no inline graph)
// that an interned instance was built from is answered from that
// instance, without running the generator: the spec key covers every
// input of the build, so the build would succeed again with the same
// graph.
func (s *Server) admitBuilt(w http.ResponseWriter, r *http.Request, prefix string, req *Request) *instanceEntry {
	declared := 0
	if req.Gen != nil {
		declared = req.Gen.N
	}
	if req.Graph != nil {
		declared = req.Graph.N
	}
	if declared > s.cfg.MaxNodes {
		s.fail(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
			"%sinstance too large: declared n=%d (limit n<=%d)", prefix, declared, s.cfg.MaxNodes)
		return nil
	}
	var spec specKey
	if req.Gen != nil && req.Graph == nil {
		spec = genSpecKey(req.Gen, req.WitnessPos)
		if e, ok := s.instances.Lookup(spec); ok {
			s.reg.Add("instance_cache_hits_total", 1)
			s.reg.Add("instance_spec_hits_total", 1)
			return e
		}
	}
	inst, err := BuildInstance(req)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "%sbad instance: %v", prefix, err)
		return nil
	}
	if s.tooLarge(w, r, prefix, inst.G.N(), inst.G.M()) {
		return nil
	}
	return s.internInstance(inst, nil, spec)
}

// checkPermutation verifies pos is a permutation of 0..n-1.
func checkPermutation(pos []int, n int) error {
	if len(pos) != n {
		return fmt.Errorf("length %d, want n = %d", len(pos), n)
	}
	seen := make([]bool, n)
	for v, p := range pos {
		if p < 0 || p >= n {
			return fmt.Errorf("pos[%d] = %d out of range [0,%d)", v, p, n)
		}
		if seen[p] {
			return fmt.Errorf("position %d used twice", p)
		}
		seen[p] = true
	}
	return nil
}

func (s *Server) handleCertify(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Add("requests_total", 1)
	var req Request
	if err := readRequest(w, r, maxCertifyBody, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	if !KnownProtocol(req.Protocol) {
		s.fail(w, r, http.StatusBadRequest, CodeUnknownProtocol, "unknown protocol %q (have %s)", req.Protocol, protocol.NameList())
		return
	}
	// Inline-graph requests take the deferred-materialization path: the
	// declared size is checked first, the cache key is derived straight
	// from the validated wire-form edge list, and the graph is only
	// built (and interned, with that sorted list) inside the cache
	// closure — a cache hit never constructs a graph. Gen-spec requests
	// (and the error cases BuildInstance diagnoses) are admitted up
	// front: a repeated spec finds its interned instance, a new one runs
	// the generator.
	var entry *instanceEntry
	var canon []uint64
	var key RequestKey
	if req.Graph != nil && req.Gen == nil {
		gj := req.Graph
		if gj.N < 2 {
			s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad instance: graph.n = %d, need >= 2", gj.N)
			return
		}
		if s.tooLarge(w, r, "", gj.N, len(gj.Edges)) {
			return
		}
		var err error
		if canon, err = canonEdges(gj.N, gj.Edges); err != nil {
			s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad instance: %v", err)
			return
		}
		if req.WitnessPos != nil {
			if err := checkPermutation(req.WitnessPos, gj.N); err != nil {
				s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad instance: bad witness_pos: %v", err)
				return
			}
		}
		key = keyFromCanon(req.Protocol, req.Seed, gj.N, canon, req.WitnessPos, nil)
	} else {
		if entry = s.admitBuilt(w, r, "", &req); entry == nil {
			return
		}
		// The effective witnesses (explicit or generator-supplied) are
		// part of the request identity: they change what the prover sends.
		key = entry.requestKey(req.Protocol, req.Seed)
	}
	if h, ok := s.protoCount[req.Protocol]; ok {
		h.Add(1)
	} else {
		s.reg.Add("requests_total{protocol="+req.Protocol+"}", 1)
	}
	// Admission: parse, validate, size-check — everything before the
	// request is allowed to contend for cache or workers.
	s.recordStage(r.Context(), "admission", time.Since(start))

	timeout := capTimeout(req.TimeoutMS, s.cfg.DefaultTimeout)

	cached, outcome, err := s.cache.Do(key, func() (*Response, error) {
		if entry == nil {
			// Deferred materialization: pre-validated, so a failure here
			// would be a canonEdges/AddEdge disagreement — surfaced, not
			// swallowed.
			built, berr := BuildInstance(&req)
			if berr != nil {
				return nil, berr
			}
			entry = s.internInstance(built, canon, "")
		}
		inst := entry.inst
		g := inst.G
		// The run deadline starts when the request actually contends for
		// workers; a pure cache hit never arms a timer.
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		var res *RunResult
		var runErr error
		submitted := time.Now()
		if perr := s.pool.Run(key, func() {
			// Queue wait: submission to worker pickup. Measured on the
			// worker so a job that never starts never reports.
			s.recordStage(ctx, "queue_wait", time.Since(submitted))
			// The deadline may have expired while the job sat queued;
			// skip the run instead of starting a doomed interaction.
			if runErr = ctx.Err(); runErr != nil {
				return
			}
			runStart := time.Now()
			res, runErr = RunProtocol(ctx, req.Protocol, inst, req.Seed, s.reg)
			s.recordStage(ctx, "run", time.Since(runStart))
		}); perr != nil {
			return nil, perr
		}
		if runErr != nil {
			return nil, runErr
		}
		// Composite sub-loops may absorb an abort as a rejection;
		// never cache a verdict produced under a dead context.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return &Response{
			Protocol:      req.Protocol,
			Key:           string(key),
			Nodes:         g.N(),
			Edges:         g.M(),
			Seed:          req.Seed,
			Accepted:      res.Accepted,
			ProverFailed:  res.ProverFailed,
			Rounds:        res.Rounds,
			ProofSizeBits: res.ProofSizeBits,
			TotalBits:     res.TotalLabelBits,
			MaxCoinBits:   res.MaxCoinBits,
			Fingerprint:   res.Fingerprint,
			RoundStats:    res.RoundStats,
		}, nil
	})
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.reg.Add("queue_full_total", 1)
			s.shed(w, r, "worker queues full, retry later")
		case errors.Is(err, ErrPoolClosed):
			s.fail(w, r, http.StatusServiceUnavailable, CodeUnavailable, "server shutting down")
		case dip.Aborted(err):
			s.reg.Add("deadline_exceeded_total", 1)
			s.fail(w, r, http.StatusGatewayTimeout, CodeDeadline, "certification aborted: %v", err)
		default:
			s.fail(w, r, http.StatusInternalServerError, CodeInternal, "certification failed: %v", err)
		}
		return
	}

	switch outcome {
	case Hit:
		s.reg.Add("cache_hits_total", 1)
	case Shared:
		s.reg.Add("singleflight_shared_total", 1)
	default:
		s.reg.Add("cache_misses_total", 1)
		// Only a freshly computed verdict appends: hits and shared calls
		// were certified (and ledgered) by their original computation.
		s.appendLedger(cached.val)
	}
	wall := time.Since(start).Nanoseconds()
	s.reg.Add("responses_total{code=200}", 1)
	w.Header().Set("Content-Type", "application/json")
	encStart := time.Now()
	writeResponse(w, cached, outcome, wall)
	s.recordStage(r.Context(), "encode", time.Since(encStart))
}
