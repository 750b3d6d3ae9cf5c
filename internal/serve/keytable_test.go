package serve

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

// TestRequestKeyTable pins every request key against
// testdata/request_keys.txt, a table of (key, body) rows that the
// service wrote before gen specs were interned. Each row must get its
// key from /v1/certify and as a batch item; each gen row is certified
// twice, and the second time its instance must come from a spec hit.
// Ledgers, certificates and dipcert -replay all depend on these keys
// staying byte-identical.
func TestRequestKeyTable(t *testing.T) {
	f, err := os.Open("testdata/request_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, ts := newTestServer(t, Config{BatchEpochInterval: time.Millisecond})
	families := map[string]bool{}
	rows := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want, body, _ := strings.Cut(line, " ")
		var req Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("row %q: %v", body, err)
		}
		runs := 1
		if req.Gen != nil {
			families[req.Gen.Family] = true
			runs = 2
		}
		for run := 0; run < runs; run++ {
			specHits := s.Registry().Get("instance_spec_hits_total")
			resp, out := postCertifyAt(t, ts, "/v1/certify", body)
			if resp.StatusCode != 200 || out.Key != want {
				t.Fatalf("certify run %d of %s: status %d, key %q, want %q", run, body, resp.StatusCode, out.Key, want)
			}
			if run == 1 && s.Registry().Get("instance_spec_hits_total") != specHits+1 {
				t.Fatalf("second certify of %s was not a spec hit", body)
			}
		}
		resp, acc := postBatch(t, ts, "", `{"items":[`+body+`]}`)
		if resp.StatusCode != 202 {
			t.Fatalf("batch of %s: status %d", body, resp.StatusCode)
		}
		job := pollJobDone(t, ts, acc.JobID)
		if job.State != "done" || job.Items[0].Result == nil || job.Items[0].Result.Key != want {
			t.Fatalf("batch item %s: state %s, item %+v, want key %q", body, job.State, job.Items[0], want)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, fam := range gen.Families() {
		if !families[fam] {
			t.Errorf("table has no gen row for family %s", fam)
		}
	}
	if rows < 100 {
		t.Fatalf("table has %d rows", rows)
	}
}
