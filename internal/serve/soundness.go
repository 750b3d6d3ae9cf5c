package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/dip"
	"repro/internal/protocol"
	"repro/internal/soundness"
)

// Soundness sweep request caps. Sweeps run whole Monte-Carlo grids,
// not single certifications, so the bounds are much tighter than the
// /v1/certify instance limits: the worst admissible request is a few
// thousand small executions, which fits inside the request deadline.
const (
	maxSweepSize  = 256  // largest instance size n per cell
	maxSweepSizes = 4    // size grid entries
	maxSweepRuns  = 100  // Monte-Carlo samples per cell
	maxSweepCells = 5000 // total (cell × run) executions
)

// SoundnessRequest is the /v1/soundness request body. Empty filters
// mean "all registered" (protocols / strategies) or the sweep default
// (sizes, runs).
type SoundnessRequest struct {
	Protocols  []string `json:"protocols,omitempty"`
	Strategies []string `json:"strategies,omitempty"`
	Sizes      []int    `json:"sizes,omitempty"`
	Runs       int      `json:"runs,omitempty"`
	Seed       int64    `json:"seed"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped at the server's 2-minute maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SoundnessResponse is the /v1/soundness response body: the estimated
// rows plus this call's service time.
type SoundnessResponse struct {
	Seed   int64           `json:"seed"`
	Rows   []soundness.Row `json:"rows"`
	WallNS int64           `json:"wall_ns"`
}

// checkSweep validates the request against the caps and returns the
// bounded estimator config plus the number of executions it implies.
func checkSweep(req *SoundnessRequest) (soundness.Config, error) {
	cfg := soundness.Config{
		Protocols:  req.Protocols,
		Strategies: req.Strategies,
		Sizes:      req.Sizes,
		Runs:       req.Runs,
		Seed:       req.Seed,
	}
	for _, p := range req.Protocols {
		if !KnownProtocol(p) {
			return cfg, fmt.Errorf("unknown protocol %q (have %s)", p, protocol.NameList())
		}
	}
	for _, s := range req.Strategies {
		if _, err := chaos.New(s, 0); err != nil {
			return cfg, err
		}
	}
	if len(req.Sizes) > maxSweepSizes {
		return cfg, fmt.Errorf("%d sizes, limit %d", len(req.Sizes), maxSweepSizes)
	}
	for _, n := range req.Sizes {
		if n < 4 || n > maxSweepSize {
			return cfg, fmt.Errorf("size n=%d out of range [4,%d]", n, maxSweepSize)
		}
	}
	if req.Runs < 0 || req.Runs > maxSweepRuns {
		return cfg, fmt.Errorf("runs=%d out of range [0,%d]", req.Runs, maxSweepRuns)
	}
	// Apply the estimator defaults here too, so the cell count below
	// reflects what will actually run.
	if cfg.Runs == 0 {
		cfg.Runs = 40
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{32, 64}
	}
	protocols := len(cfg.Protocols)
	if protocols == 0 {
		protocols = len(protocol.Names())
	}
	strategies := len(cfg.Strategies)
	if strategies == 0 {
		strategies = len(chaos.Names())
	}
	cells := protocols * (1 + strategies*len(cfg.Sizes))
	if total := cells * cfg.Runs; total > maxSweepCells {
		return cfg, fmt.Errorf("sweep implies %d executions, limit %d (narrow protocols, strategies, sizes, or runs)", total, maxSweepCells)
	}
	return cfg, nil
}

// sweepKey derives the pool-sharding key for a sweep. Sweeps are not
// cached (they are Monte-Carlo estimates the caller sizes explicitly),
// so the key only needs to spread load across shards.
func sweepKey(req *SoundnessRequest) RequestKey {
	h := sha256.New()
	fmt.Fprintf(h, "dipserve/v1/soundness|%d|%v|%v|%v|%d", req.Seed, req.Protocols, req.Strategies, req.Sizes, req.Runs)
	return RequestKey(hex.EncodeToString(h.Sum(nil)))
}

// handleSoundness runs a bounded Monte-Carlo soundness sweep on the
// worker pool. Unlike /v1/certify, results are not cached: the
// estimator is deterministic in (config, seed), cheap relative to its
// own caps, and callers asking for fresh samples vary the seed.
func (s *Server) handleSoundness(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Add("requests_total", 1)
	s.reg.Add("soundness_requests_total", 1)
	var req SoundnessRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	cfg, err := checkSweep(&req)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad sweep: %v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), capTimeout(req.TimeoutMS, s.cfg.DefaultTimeout))
	defer cancel()

	var rows []soundness.Row
	var runErr error
	if perr := s.pool.Run(sweepKey(&req), func() {
		if runErr = ctx.Err(); runErr != nil {
			return
		}
		rows, runErr = soundness.Estimate(ctx, cfg)
	}); perr != nil {
		runErr = perr
	}
	if runErr != nil {
		switch {
		case errors.Is(runErr, ErrQueueFull):
			s.reg.Add("queue_full_total", 1)
			s.shed(w, r, "worker queues full, retry later")
		case errors.Is(runErr, ErrPoolClosed):
			s.fail(w, r, http.StatusServiceUnavailable, CodeUnavailable, "server shutting down")
		case dip.Aborted(runErr) || errors.Is(runErr, context.DeadlineExceeded):
			s.reg.Add("deadline_exceeded_total", 1)
			s.fail(w, r, http.StatusGatewayTimeout, CodeDeadline, "sweep aborted: %v", runErr)
		default:
			s.fail(w, r, http.StatusInternalServerError, CodeInternal, "sweep failed: %v", runErr)
		}
		return
	}
	s.reg.Add("responses_total{code=200}", 1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&SoundnessResponse{Seed: req.Seed, Rows: rows, WallNS: time.Since(start).Nanoseconds()})
}
