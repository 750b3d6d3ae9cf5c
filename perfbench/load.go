package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one timed operation as the client saw it.
type sample struct {
	idx   int           // timed-request index
	lat   time.Duration // send to last response byte
	reqID string        // the server's X-Request-Id
	key   string        // canonical request hash from the response
	fp    string        // fingerprint from the response
	err   error         // nil when every output check passed
}

func newClient(clients int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

// certify posts one request and returns the status, body and request id.
func certify(c *http.Client, base string, body []byte) (int, []byte, string, error) {
	resp, err := c.Post(base+"/v1/certify", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, resp.Header.Get("X-Request-Id"), err
}

// closedLoop runs clients goroutines, each sending its next request
// only after the previous response arrived, until the deadline passes.
// Requests are drawn from one shared index, so the request sequence is
// a function of the workload alone. judge checks each response.
//
// onDone, when non-nil, is called after every completed operation with
// the number completed so far.
func closedLoop(c *http.Client, base string, clients int, deadline time.Time, limit int,
	next func(i int) *request, judge func(r *request, status int, body []byte) (*certifyResp, error),
	onDone func(completed int64)) ([]sample, error) {
	var (
		counter   atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup
		exhausted atomic.Bool
	)
	per := make([][]sample, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(counter.Add(1) - 1)
				if limit > 0 && i >= limit {
					exhausted.Store(true)
					return
				}
				r := next(i)
				t0 := time.Now()
				status, body, id, err := certify(c, base, r.body)
				s := sample{idx: i, lat: time.Since(t0), reqID: id}
				if err == nil {
					var cr *certifyResp
					cr, err = judge(r, status, body)
					if cr != nil {
						s.key, s.fp = cr.Key, cr.Fingerprint
					}
				}
				s.err = err
				per[w] = append(per[w], s)
				if n := completed.Add(1); onDone != nil {
					onDone(n)
				}
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].idx < all[j].idx })
	if exhausted.Load() {
		return all, fmt.Errorf("input pool of %d requests exhausted before the deadline", limit)
	}
	return all, nil
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the sample at or below it.
// xs must be sorted ascending and non-empty.
func percentile(xs []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// minTailSample is the operation count a p99 needs: ten samples then
// lie beyond it.
const minTailSample = 1000

// tailMillis returns the nearest-rank p-th percentile of a run's sorted
// latencies. A p99 over fewer than minTailSample operations is an
// error: it would sit on the few slowest samples, not on a tail.
func tailMillis(sorted []float64, p float64) (float64, error) {
	if p == 99 && len(sorted) < minTailSample {
		return 0, fmt.Errorf("a p99 tail needs at least %d operations, the run completed %d", minTailSample, len(sorted))
	}
	return percentile(sorted, p), nil
}

func sortedMillis(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(xs)
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
