package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"time"

	"repro/internal/batch"
	"repro/internal/protocol"
)

// Async batch certification: POST /v1/certify/batch accepts a list of
// certify requests, validates every item synchronously (a bad item
// fails the whole submission with 400 — nothing is partially
// enqueued), and hands the work to the internal/batch manager under
// the caller's tenant (X-Tenant header). The response is 202 with a
// job id; GET /v1/jobs/{id} polls (or long-polls with ?wait=) and
// DELETE /v1/jobs/{id} cancels. Each item's Run closure is the same
// cache → singleflight → worker-pool path as synchronous /v1/certify,
// so identical items — within one batch, across batches, or against
// interactive traffic — run the engine once and share the result.

// BatchRequest is the /v1/certify/batch request body.
type BatchRequest struct {
	// Items are ordinary certify requests; per-item timeout_ms bounds
	// that item's run (capped at the server's 2-minute maximum) on top
	// of the job-level deadline.
	Items []Request `json:"items"`
	// TimeoutMS bounds the whole job; every item still pending when it
	// fires is canceled. 0 means, and larger values cap at, the
	// server's 2-minute maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CancelOnAbandon cancels the job when its last long-poll watcher
	// disconnects: fire-and-forget clients should leave it false,
	// interactive clients set it true so closing the connection stops
	// the work.
	CancelOnAbandon bool `json:"cancel_on_abandon,omitempty"`
}

// BatchAccepted is the 202 response to a batch submission.
type BatchAccepted struct {
	JobID     string `json:"job_id"`
	Items     int    `json:"items"`
	StatusURL string `json:"status_url"`
}

// JobItemJSON is one item's state in a job snapshot.
type JobItemJSON struct {
	Status string    `json:"status"`
	Result *Response `json:"result,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// JobJSON is the /v1/jobs/{id} response body.
type JobJSON struct {
	JobID    string        `json:"job_id"`
	Tenant   string        `json:"tenant"`
	State    string        `json:"state"`
	Created  time.Time     `json:"created"`
	Finished *time.Time    `json:"finished,omitempty"`
	Total    int           `json:"total"`
	Done     int           `json:"done"`
	Errors   int           `json:"errors"`
	Canceled int           `json:"canceled"`
	Items    []JobItemJSON `json:"items"`
}

// itemClass groups compatible work for epoch dispatch: protocol,
// instance family (generator family or "inline"), and a power-of-two
// size class. Items sharing a class run back to back within an epoch.
func itemClass(req *Request, n int) string {
	family := "inline"
	if req.Gen != nil {
		family = req.Gen.Family
	}
	return fmt.Sprintf("%s|%s|%d", req.Protocol, family, bits.Len(uint(n)))
}

// certifyItem builds the batch Run closure for one validated item: the
// synchronous certify execution path (cache, singleflight, worker
// pool) minus the HTTP framing, executed under the job's child
// context.
func (s *Server) certifyItem(req Request, inst *Instance, key RequestKey) func(ctx context.Context) (*Response, error) {
	itemTimeout := capTimeout(req.TimeoutMS, 0)
	return func(ctx context.Context) (*Response, error) {
		start := time.Now()
		if itemTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, itemTimeout)
			defer cancel()
		}
		cached, outcome, err := s.cache.Do(key, func() (*Response, error) {
			var res *RunResult
			var runErr error
			submitted := time.Now()
			// SubmitWait semantics: an admitted batch item waits out
			// transient queue saturation instead of shedding — interactive
			// 429s are the pressure valve, batch work just queues.
			if perr := s.pool.RunWait(ctx, key, func() {
				s.recordStage(ctx, "queue_wait", time.Since(submitted))
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
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return &Response{
				Protocol:      req.Protocol,
				Key:           string(key),
				Nodes:         inst.G.N(),
				Edges:         inst.G.M(),
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
			return nil, err
		}
		switch outcome {
		case Hit:
			s.reg.Add("cache_hits_total", 1)
		case Shared:
			s.reg.Add("singleflight_shared_total", 1)
		default:
			s.reg.Add("cache_misses_total", 1)
			// Batch verdicts certify on the same ledger as interactive ones.
			s.appendLedger(cached.val)
		}
		out := *cached.val // per-item copy: the cached value stays pristine
		out.CacheHit = outcome == Hit
		out.Shared = outcome == Shared
		out.WallNS = time.Since(start).Nanoseconds()
		return &out, nil
	}
}

func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.reg.Add("requests_total", 1)
	s.reg.Add("batch_requests_total", 1)
	var breq BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 256<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&breq); err != nil {
		s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
		return
	}
	if len(breq.Items) == 0 {
		s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "batch has no items")
		return
	}
	if len(breq.Items) > s.cfg.MaxBatchItems {
		s.fail(w, r, http.StatusRequestEntityTooLarge, CodeTooLarge,
			"batch has %d items, limit %d", len(breq.Items), s.cfg.MaxBatchItems)
		return
	}

	// Validate every item up front: instance construction is cheap
	// relative to certification, and an all-or-nothing submission means
	// a client bug never half-enqueues a job.
	items := make([]batch.Item[*Response], len(breq.Items))
	for i := range breq.Items {
		req := breq.Items[i] // copy: the closure must not alias the loop slice
		if !KnownProtocol(req.Protocol) {
			s.fail(w, r, http.StatusBadRequest, CodeUnknownProtocol,
				"item %d: unknown protocol %q (have %s)", i, req.Protocol, protocol.NameList())
			return
		}
		entry := s.admitBuilt(w, r, fmt.Sprintf("item %d: ", i), &req)
		if entry == nil {
			return
		}
		s.reg.Add("requests_total{protocol="+req.Protocol+"}", 1)
		items[i] = batch.Item[*Response]{
			Class: itemClass(&req, entry.inst.G.N()),
			Run:   s.certifyItem(req, entry.inst, entry.requestKey(req.Protocol, req.Seed)),
		}
	}
	s.recordStage(r.Context(), "admission", time.Since(start))

	tenant := tenantOf(r)
	id, err := s.batch.Submit(tenant, items, batch.SubmitOptions{
		Timeout:         capTimeout(breq.TimeoutMS, 0),
		CancelOnAbandon: breq.CancelOnAbandon,
	})
	if err != nil {
		switch {
		case errors.Is(err, batch.ErrTenantQueueFull):
			s.shed(w, r, "tenant %q queue full, retry later", tenant)
		case errors.Is(err, batch.ErrTooManyJobs):
			s.shed(w, r, "job table full, retry later")
		case errors.Is(err, batch.ErrClosed):
			s.fail(w, r, http.StatusServiceUnavailable, CodeUnavailable, "server shutting down")
		default:
			s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad batch: %v", err)
		}
		return
	}

	s.reg.Add("responses_total{code=202}", 1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/v1/jobs/"+id)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(BatchAccepted{
		JobID:     id,
		Items:     len(items),
		StatusURL: "/v1/jobs/" + id,
	})
}

// jobJSON converts a manager snapshot to the wire shape.
func jobJSON(snap batch.Snapshot[*Response]) JobJSON {
	out := JobJSON{
		JobID:    snap.ID,
		Tenant:   snap.Tenant,
		State:    snap.State,
		Created:  snap.Created,
		Total:    snap.Total,
		Done:     snap.Done,
		Errors:   snap.Errors,
		Canceled: snap.Canceled,
		Items:    make([]JobItemJSON, len(snap.Items)),
	}
	if !snap.Finished.IsZero() {
		f := snap.Finished
		out.Finished = &f
	}
	for i, it := range snap.Items {
		out.Items[i] = JobItemJSON{Status: string(it.Status), Error: it.Err}
		if it.Status == batch.StatusDone {
			out.Items[i].Result = it.Result
		}
	}
	return out
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch r.Method {
	case http.MethodDelete:
		if !s.batch.Cancel(id) {
			s.fail(w, r, http.StatusNotFound, CodeNotFound, "no such job %q", id)
			return
		}
		s.reg.Add("responses_total{code=200}", 1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"canceled":true}`)
	case http.MethodGet:
		var snap batch.Snapshot[*Response]
		var ok bool
		if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
			wait, err := time.ParseDuration(waitStr)
			if err != nil {
				s.fail(w, r, http.StatusBadRequest, CodeBadRequest, "bad wait duration %q: %v", waitStr, err)
				return
			}
			if wait > s.cfg.MaxWait {
				wait = s.cfg.MaxWait
			}
			// Long-poll under the client's context: a disconnect during
			// the wait counts as abandonment for CancelOnAbandon jobs.
			snap, ok = s.batch.Wait(r.Context(), id, wait)
		} else {
			snap, ok = s.batch.Get(id)
		}
		if !ok {
			s.fail(w, r, http.StatusNotFound, CodeNotFound, "no such job %q", id)
			return
		}
		s.reg.Add("responses_total{code=200}", 1)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(jobJSON(snap))
	default:
		s.fail(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed, "GET or DELETE only")
	}
}
