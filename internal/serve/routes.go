package serve

import (
	"encoding/json"
	"net/http"
	"strings"
)

// The route table is the single source of truth for the HTTP surface:
// New registers handlers from it, the middleware pre-resolves its
// latency-histogram handles from it, and GET /v1/specz serializes it —
// so the machine-readable API description can never drift from what is
// actually mounted, and CI can diff the surface across versions.

// LegacySunset is the RFC 8594 Sunset date advertised on the
// deprecated unversioned routes: the instant after which they may be
// removed. Probe aliases (/healthz, /readyz) carry no Sunset — load
// balancer configs do not migrate on API cadence.
const LegacySunset = "Fri, 01 Jan 2027 00:00:00 GMT"

// ParamJSON documents one route parameter in /v1/specz.
type ParamJSON struct {
	// Name of the parameter; In is where it travels: "query", "path",
	// or "body" (the whole request body).
	Name string `json:"name"`
	In   string `json:"in"`
	Doc  string `json:"doc,omitempty"`
}

// RouteJSON is one row of the /v1/specz route table (and the internal
// registration record; the handler does not serialize).
type RouteJSON struct {
	// Pattern is the mux pattern ({name} segments are path params).
	Pattern string      `json:"pattern"`
	Methods []string    `json:"methods"`
	Summary string      `json:"summary"`
	Params  []ParamJSON `json:"params,omitempty"`
	// Deprecated routes answer with Deprecation, Sunset, and a Link to
	// Successor; new clients must use the successor.
	Deprecated bool   `json:"deprecated"`
	Sunset     string `json:"sunset,omitempty"`
	Successor  string `json:"successor,omitempty"`
	// Probe marks an unversioned alias kept for infrastructure probes:
	// not deprecated, but not part of the /v1 surface either.
	Probe bool `json:"probe,omitempty"`

	handler http.HandlerFunc
}

// routes builds the full table. Order is presentation order in specz.
func (s *Server) routes() []RouteJSON {
	post := []string{http.MethodPost}
	get := []string{http.MethodGet}
	return []RouteJSON{
		{
			Pattern: "/v1/certify", Methods: post, handler: s.handleCertify,
			Summary: "run one certification (inline graph or generator spec); cached + deduplicated",
			Params:  []ParamJSON{{Name: "request", In: "body", Doc: "certify request (SERVICE.md)"}},
		},
		{
			Pattern: "/v1/certify/batch", Methods: post, handler: s.handleBatchSubmit,
			Summary: "submit an async certification batch; 202 + job id",
			Params:  []ParamJSON{{Name: "batch", In: "body", Doc: "items: certify requests"}},
		},
		{
			Pattern: "/v1/jobs/{id}", Methods: []string{http.MethodGet, http.MethodDelete}, handler: s.handleJob,
			Summary: "poll (GET, ?wait= long-poll) or cancel (DELETE) an async job",
			Params: []ParamJSON{
				{Name: "id", In: "path", Doc: "job id from the 202 response"},
				{Name: "wait", In: "query", Doc: "long-poll duration, capped at Config.MaxWait"},
			},
		},
		{
			Pattern: "/v1/certificates", Methods: get, handler: s.handleCertificateList,
			Summary: "page through ledger certificates in sequence order",
			Params: []ParamJSON{
				{Name: "protocol", In: "query", Doc: "filter by protocol name"},
				{Name: "after", In: "query", Doc: "resume cursor: last seen seq"},
				{Name: "limit", In: "query", Doc: "page size, clamped to [1," + maxListLimitStr + "] (default " + defaultListLimitStr + ")"},
			},
		},
		{
			Pattern: "/v1/certificates/{hash}", Methods: get, handler: s.handleCertificate,
			Summary: "fetch one certificate by canonical request hash, with its Merkle inclusion proof once sealed",
			Params:  []ParamJSON{{Name: "hash", In: "path", Doc: "canonical request hash (the certify response key)"}},
		},
		{
			Pattern: "/v1/ledger/rootz", Methods: get, handler: s.handleRootz,
			Summary: "ledger chain head; ?from=N appends the root records from batch N for offline chain verification",
			Params:  []ParamJSON{{Name: "from", In: "query", Doc: "first batch index to include root records for"}},
		},
		{
			Pattern: "/v1/healthz", Methods: get, handler: s.handleHealthz,
			Summary: "liveness: the process is up",
		},
		{
			Pattern: "/v1/readyz", Methods: get, handler: s.handleReadyz,
			Summary: "readiness: 503 once worker queues pass 90% saturation",
		},
		{
			Pattern: "/v1/metricsz", Methods: get, handler: s.handleMetricsz,
			Summary: "metrics snapshot as NDJSON or Prometheus text",
			Params:  []ParamJSON{{Name: "format", In: "query", Doc: "ndjson (default) or prometheus"}},
		},
		{
			Pattern: "/v1/protocolz", Methods: get, handler: s.handleProtocolz,
			Summary: "registered protocol descriptors",
		},
		{
			Pattern: "/v1/soundness", Methods: post, handler: s.handleSoundness,
			Summary: "bounded Monte-Carlo soundness sweep (uncached)",
			Params:  []ParamJSON{{Name: "sweep", In: "body", Doc: "protocols/strategies/sizes/runs/seed"}},
		},
		{
			Pattern: "/v1/specz", Methods: get, handler: s.handleSpecz,
			Summary: "this machine-readable API description",
		},

		// Unversioned legacy surface. The deprecated trio sunsets; the
		// probe aliases stay (probes do not migrate on API cadence).
		{
			Pattern: "/certify", Methods: post, handler: s.handleCertify,
			Summary: "deprecated alias of /v1/certify", Deprecated: true,
			Sunset: LegacySunset, Successor: "/v1/certify",
		},
		{
			Pattern: "/metricsz", Methods: get, handler: s.handleMetricsz,
			Summary: "deprecated alias of /v1/metricsz", Deprecated: true,
			Sunset: LegacySunset, Successor: "/v1/metricsz",
		},
		{
			Pattern: "/protocolz", Methods: get, handler: s.handleProtocolz,
			Summary: "deprecated alias of /v1/protocolz", Deprecated: true,
			Sunset: LegacySunset, Successor: "/v1/protocolz",
		},
		{
			Pattern: "/healthz", Methods: get, handler: s.handleHealthz,
			Summary: "unversioned liveness probe alias", Probe: true,
		},
		{
			Pattern: "/readyz", Methods: get, handler: s.handleReadyz,
			Summary: "unversioned readiness probe alias", Probe: true,
		},
	}
}

// enforceMethods gates a route's handler on the table's declared
// Methods, so the mounted behavior matches /v1/specz by construction: a
// wrong-method request answers a 405 envelope with an Allow header and
// never reaches the handler. Every registration funnels through here
// (New), which is what keeps per-handler method checks out of the
// handlers themselves.
func (s *Server) enforceMethods(rt RouteJSON) http.HandlerFunc {
	h := rt.handler
	allow := strings.Join(rt.Methods, ", ")
	methods := rt.Methods
	return func(w http.ResponseWriter, r *http.Request) {
		for _, m := range methods {
			if r.Method == m {
				h(w, r)
				return
			}
		}
		w.Header().Set("Allow", allow)
		s.fail(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "%s only", allow)
	}
}

// handleNotFound is the fallback for paths the route table does not
// mount: the documented error envelope, never ServeMux's plain-text
// 404 page.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.fail(w, r, http.StatusNotFound, CodeNotFound, "no route for %s (see /v1/specz)", r.URL.Path)
}

// legacy wraps an unversioned route's method-enforced handler h. Every
// unversioned registration funnels through here — deprecated routes
// answer with the RFC 8594 headers (Deprecation, Sunset, Link
// rel="successor-version") plus the drain counter operators watch
// before removal; probe aliases skip the headers (they are not
// deprecated) but get their own traffic counter so unversioned probe
// usage stays visible.
func (s *Server) legacy(rt RouteJSON, h http.HandlerFunc) http.HandlerFunc {
	if !rt.Deprecated {
		counter := s.reg.Counter("legacy_probe_requests_total{path=" + rt.Pattern + "}")
		return func(w http.ResponseWriter, r *http.Request) {
			counter.Add(1)
			h(w, r)
		}
	}
	counter := s.reg.Counter("deprecated_requests_total{path=" + rt.Pattern + "}")
	link := "<" + rt.Successor + ">; rel=\"successor-version\""
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Sunset", rt.Sunset)
		w.Header().Set("Link", link)
		counter.Add(1)
		h(w, r)
	}
}

// SpecJSON is the /v1/specz response body.
type SpecJSON struct {
	Service    string      `json:"service"`
	APIVersion string      `json:"api_version"`
	Routes     []RouteJSON `json:"routes"`
}

// handleSpecz serves the machine-readable API description, generated
// from the same route table the mux is registered from.
func (s *Server) handleSpecz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(SpecJSON{
		Service:    "dipserve",
		APIVersion: "v1",
		Routes:     s.spec,
	})
}
