package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/protocol"
	"repro/internal/serve"
)

// certifyResp is the part of a /v1/certify response the checks read.
type certifyResp struct {
	Protocol      string `json:"protocol"`
	Key           string `json:"key"`
	Nodes         int    `json:"nodes"`
	Accepted      bool   `json:"accepted"`
	Rounds        int    `json:"rounds"`
	ProofSizeBits int    `json:"proof_size_bits"`
	Fingerprint   string `json:"fingerprint"`
	CacheHit      bool   `json:"cache_hit"`
}

// checkResponse applies every per-response output check: status 200,
// accepted (every generated input is a yes-instance), the protocol's
// declared round count, the paper's proof-size bound at the instance's
// (n, Δ), and the cache behaviour the workload requires. A non-empty
// wantFP is the fingerprint the response must carry.
func checkResponse(r *request, status int, body []byte, wantHit bool, wantFP string) (*certifyResp, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var cr certifyResp
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, fmt.Errorf("bad response JSON: %w", err)
	}
	d, ok := protocol.Get(r.protocol)
	if !ok {
		return &cr, fmt.Errorf("unknown protocol %q", r.protocol)
	}
	switch {
	case cr.Protocol != r.protocol:
		return &cr, fmt.Errorf("protocol %q, sent %q", cr.Protocol, r.protocol)
	case cr.Nodes != r.n:
		return &cr, fmt.Errorf("nodes %d, sent %d", cr.Nodes, r.n)
	case !cr.Accepted:
		return &cr, fmt.Errorf("%s rejected a yes-instance (n=%d)", r.protocol, r.n)
	case cr.Rounds != d.Rounds:
		return &cr, fmt.Errorf("%s ran %d rounds, declared %d", r.protocol, cr.Rounds, d.Rounds)
	case cr.ProofSizeBits > d.ProofSizeBound(r.n, r.delta):
		return &cr, fmt.Errorf("%s proof size %d bits exceeds the bound %d at n=%d Δ=%d",
			r.protocol, cr.ProofSizeBits, d.ProofSizeBound(r.n, r.delta), r.n, r.delta)
	case cr.CacheHit != wantHit:
		return &cr, fmt.Errorf("cache_hit=%v, workload requires %v", cr.CacheHit, wantHit)
	case wantFP != "" && cr.Fingerprint != wantFP:
		return &cr, fmt.Errorf("fingerprint %s, expected %s", cr.Fingerprint, wantFP)
	}
	return &cr, nil
}

// localFingerprint recomputes a request's verdict fingerprint in
// process, through the same public path the server runs.
func localFingerprint(body []byte) (string, error) {
	var req serve.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	inst, err := serve.BuildInstance(&req)
	if err != nil {
		return "", err
	}
	res, err := serve.RunProtocol(context.Background(), req.Protocol, inst, req.Seed, nil)
	if err != nil {
		return "", err
	}
	if !res.Accepted {
		return "", fmt.Errorf("local run of %s rejected", req.Protocol)
	}
	return res.Fingerprint, nil
}
