package serve

import (
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"
)

// hugeTimeouts are timeout_ms values whose nanosecond count overflows a
// time.Duration: the smallest such millisecond count, and the largest
// int64 the decoder accepts.
var hugeTimeouts = []int64{9_223_372_036_855, math.MaxInt64}

// TestHugeTimeoutCaps: a timeout_ms too large for a time.Duration caps
// at the server's maximum instead of overflowing into a negative
// deadline, which answered a fresh certify or soundness sweep 504 at
// once and dropped a batch item's own deadline. Every request uses a
// fresh seed, so it runs the engine instead of hitting the cache.
func TestHugeTimeoutCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{BatchEpochInterval: 5 * time.Millisecond})
	for i, ms := range hugeTimeouts {
		seed := 7100 + i
		resp, out := postCertifyAt(t, ts, "/v1/certify", fmt.Sprintf(
			`{"protocol":"planarity","seed":%d,"timeout_ms":%d,"graph":{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}}`, seed, ms))
		if resp.StatusCode != http.StatusOK || !out.Accepted || out.CacheHit {
			t.Errorf("certify, timeout_ms=%d: status %d, %+v", ms, resp.StatusCode, out)
		}

		sresp, _ := postSoundness(t, ts, fmt.Sprintf(
			`{"protocols":["pathouter"],"strategies":["honest"],"sizes":[16],"runs":2,"seed":%d,"timeout_ms":%d}`, seed, ms))
		if sresp.StatusCode != http.StatusOK {
			t.Errorf("soundness, timeout_ms=%d: status %d", ms, sresp.StatusCode)
		}

		item := fmt.Sprintf(`{"protocol":"planarity","seed":%d,"timeout_ms":%d,"gen":{"family":"k4sub","n":24,"seed":%d}}`, seed, ms, seed)
		bresp, acc := postBatch(t, ts, "", batchBody([]string{item}, fmt.Sprintf(`"timeout_ms":%d`, ms)))
		if bresp.StatusCode != http.StatusAccepted {
			t.Fatalf("batch, timeout_ms=%d: status %d", ms, bresp.StatusCode)
		}
		job := pollJobDone(t, ts, acc.JobID)
		if job.State != "done" || len(job.Items) != 1 || job.Items[0].Result == nil || !job.Items[0].Result.Accepted {
			t.Errorf("batch item, timeout_ms=%d: %+v", ms, job)
		}
	}
}

// TestCapTimeout pins the clamp every timeout_ms goes through: none
// takes the default, values up to the maximum are taken as asked, and
// anything above it — however large — caps.
func TestCapTimeout(t *testing.T) {
	const def = 30 * time.Second
	cases := []struct {
		ms   int64
		want time.Duration
	}{
		{0, def},
		{-5, def},
		{math.MinInt64, def},
		{1, time.Millisecond},
		{maxTimeout.Milliseconds() - 1, maxTimeout - time.Millisecond},
		{maxTimeout.Milliseconds(), maxTimeout},
		{maxTimeout.Milliseconds() + 1, maxTimeout},
		{hugeTimeouts[0], maxTimeout},
		{hugeTimeouts[1], maxTimeout},
	}
	for _, c := range cases {
		if got := capTimeout(c.ms, def); got != c.want {
			t.Errorf("capTimeout(%d) = %v, want %v", c.ms, got, c.want)
		}
	}
	if got := capTimeout(0, 0); got != 0 {
		t.Errorf("capTimeout(0, 0) = %v, want 0 (no deadline of its own)", got)
	}
}
