// Package benchkit runs the engine hot-path and service throughput
// benchmarks outside `go test`, so cmd/dipbench can emit machine-readable
// before/after numbers (BENCH_dip.json) for the perf gate. The workloads
// mirror BenchmarkRunnerHotPath / BenchmarkRepeatHotPath (internal/dip)
// and BenchmarkServeThroughput (internal/serve); keep them in sync when
// the fixtures change. The channel engine, Runner's oracle, is left
// out so that no binary links it (only tests select it); its
// BenchmarkChannelHotPath runs under `go test`.
package benchkit

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/serve"
)

// Result is one benchmark measurement in wire form. The hot-path rows
// leave N and GOMAXPROCS zero (they run at the snapshot's GOMAXPROCS);
// scaling-table rows tag both, which is what lets one file carry a
// mixed n × GOMAXPROCS table next to the untagged rows.
type Result struct {
	Name        string `json:"name"`
	N           int    `json:"n,omitempty"`
	GOMAXPROCS  int    `json:"gomaxprocs,omitempty"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	// Speedup is ns/op at GOMAXPROCS=1 over this row's ns/op, for
	// scaling-table rows measured alongside a serial partner
	// (FillSpeedups); zero (omitted) elsewhere.
	Speedup float64 `json:"speedup,omitempty"`
}

// key is the merge identity of a row within a snapshot.
func (r Result) key() string {
	return fmt.Sprintf("%s|%d|%d", r.Name, r.N, r.GOMAXPROCS)
}

// Snapshot is one full suite run with its environment.
type Snapshot struct {
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Note       string   `json:"note,omitempty"`
	Results    []Result `json:"results"`
}

// File is the BENCH_dip.json document: the first snapshot ever written
// is frozen as the baseline; later runs only replace current.
type File struct {
	Schema   string    `json:"schema"`
	Baseline *Snapshot `json:"baseline,omitempty"`
	Current  *Snapshot `json:"current"`
}

const schema = "bench_dip/v1"

func toResult(name string, r testing.BenchmarkResult) Result {
	return Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// fixedProver replays a prerecorded assignment per round, like the test
// fixture of the same shape in internal/dip.
type fixedProver struct{ assigns []*dip.Assignment }

func (p *fixedProver) Round(round int, _ [][]bitio.String) (*dip.Assignment, error) {
	if round >= len(p.assigns) {
		return nil, fmt.Errorf("benchkit: no assignment for round %d", round)
	}
	return p.assigns[round], nil
}

// hotPathVerifier reads every label of its rounds prover rounds so no
// view read can be elided, without any protocol-level decoding.
type hotPathVerifier struct{ rounds int }

func (hotPathVerifier) Coins(round int, view *dip.View, rng *rand.Rand) bitio.String {
	return bitio.FromUint(uint64(rng.Intn(16)), 4)
}

func (hv hotPathVerifier) Decide(view *dip.View) bool {
	sum := 0
	for r := 0; r < hv.rounds; r++ {
		sum += view.Own(r).Len()
		for p := 0; p < view.Deg(); p++ {
			sum += view.Nbr(p, r).Len() + view.EdgeLab(p, r).Len()
		}
	}
	return sum > 0
}

func fixture(rows, cols, proverRounds int) (*dip.Instance, *fixedProver) {
	g := builderGrid(rows, cols)
	assigns := make([]*dip.Assignment, proverRounds)
	for pr := range assigns {
		a := dip.NewEdgeAssignment(g)
		for v := 0; v < g.N(); v++ {
			a.Node[v] = bitio.FromUint(uint64(v%256), 8)
		}
		for id, e := range g.Edges() {
			a.Edge[id] = bitio.FromUint(uint64((e.U+e.V)%16), 4)
		}
		assigns[pr] = a
	}
	return dip.NewInstance(g), &fixedProver{assigns: assigns}
}

// HotPath runs the two engine hot-path workloads (P=3/V=2 on a
// 10k-node grid, and Repeat on a 2,500-node one) and the two service
// throughput workloads, in the same order as the committed baseline.
func HotPath() ([]Result, error) {
	var out []Result
	var benchErr error

	inst, prover := fixture(100, 100, 3)
	v := hotPathVerifier{rounds: 3}

	runner := dip.NewRunner(inst)
	out = append(out, toResult("RunnerHotPath", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := runner.Run(prover, v, 3, 2, rand.New(rand.NewSource(int64(i))))
			if err != nil || !res.Accepted {
				benchErr = fmt.Errorf("benchkit: runner: accepted=%v err=%v", res != nil && res.Accepted, err)
				b.FailNow()
			}
		}
	})))

	rinst, rprover := fixture(50, 50, 3)
	proto := &dip.Protocol{
		Name:           "hotpath",
		ProverRounds:   3,
		VerifierRounds: 2,
		NewProver:      func() dip.Prover { return rprover },
		Verifier:       hotPathVerifier{rounds: 3},
	}
	out = append(out, toResult("RepeatHotPath", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr, err := proto.Repeat(rinst, 2, rand.New(rand.NewSource(int64(i))))
			if err != nil || tr.Accepts != tr.Runs {
				benchErr = fmt.Errorf("benchkit: repeat: err=%v", err)
				b.FailNow()
			}
		}
	})))

	sr, err := serveThroughput()
	if err != nil {
		return nil, err
	}
	out = append(out, sr...)
	if benchErr != nil {
		return nil, benchErr
	}
	return out, nil
}

const k4Req = `{"protocol":"planarity","seed":1,"graph":{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}}`

// serveThroughput mirrors BenchmarkServeThroughput: the in-process
// /certify request path with a warm cache (CacheHit) and with cycling
// seeds so every request executes the protocol (Miss).
func serveThroughput() ([]Result, error) {
	var benchErr error
	bench := func(body func(i int) string) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			s, err := serve.New(serve.Config{})
			if err != nil {
				benchErr = err
				b.FailNow()
			}
			defer s.Close()
			h := s.Handler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest(http.MethodPost, "/certify", strings.NewReader(body(i)))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					benchErr = fmt.Errorf("benchkit: serve: status %d: %s", w.Code, w.Body.String())
					b.FailNow()
				}
			}
		})
	}
	out := []Result{
		toResult("ServeThroughput/CacheHit", bench(func(int) string { return k4Req })),
		toResult("ServeThroughput/Miss", bench(func(i int) string {
			return fmt.Sprintf(
				`{"protocol":"planarity","seed":%d,"graph":{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}}`, i)
		})),
	}
	if benchErr != nil {
		return nil, benchErr
	}
	return out, nil
}

// WriteFile merges a suite run into path. Rows merge by identity
// (name, n, gomaxprocs): within current, a re-measured row replaces the
// old value and unrelated rows (say, the scaling table next to the
// hot-path rows) survive; within baseline, only rows whose identity has
// never been measured are added, so each row's first-ever measurement
// stays frozen as its baseline for the perf gate.
//
// Untagged rows (gomaxprocs == 0) implicitly ran at the snapshot-level
// GOMAXPROCS, so writing them from a process at a different GOMAXPROCS
// than the baseline's is not a comparable measurement and is refused
// unless force is set. Self-tagged scaling rows pin their own P and
// merge freely.
func WriteFile(path, note string, results []Result, force bool) error {
	snap := &Snapshot{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note:       note,
		Results:    results,
	}
	doc := &File{Schema: schema, Current: snap}
	if raw, err := os.ReadFile(path); err == nil {
		var prev File
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("benchkit: %s exists but is not valid bench JSON: %w", path, err)
		}
		doc.Baseline = prev.Baseline
		untagged := false
		for _, r := range results {
			if r.GOMAXPROCS == 0 {
				untagged = true
				break
			}
		}
		if untagged && doc.Baseline != nil && doc.Baseline.GOMAXPROCS != snap.GOMAXPROCS && !force {
			return fmt.Errorf(
				"benchkit: refusing to overwrite current in %s: baseline was measured at GOMAXPROCS=%d, this run at %d (use -force to override)",
				path, doc.Baseline.GOMAXPROCS, snap.GOMAXPROCS)
		}
		if prev.Current != nil {
			snap.Results = upsertResults(prev.Current.Results, results)
		}
	}
	if doc.Baseline == nil {
		doc.Baseline = &Snapshot{
			GoVersion:  snap.GoVersion,
			GOMAXPROCS: snap.GOMAXPROCS,
			Note:       snap.Note,
			Results:    results,
		}
	} else {
		doc.Baseline.Results = addMissingResults(doc.Baseline.Results, results)
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// upsertResults merges fresh rows into old by identity: matching rows
// are replaced in place (stable order), new identities append.
func upsertResults(old, fresh []Result) []Result {
	out := append([]Result(nil), old...)
	at := make(map[string]int, len(out))
	for i, r := range out {
		at[r.key()] = i
	}
	for _, r := range fresh {
		if i, ok := at[r.key()]; ok {
			out[i] = r
		} else {
			at[r.key()] = len(out)
			out = append(out, r)
		}
	}
	return out
}

// addMissingResults appends only rows whose identity base lacks,
// leaving every already-frozen baseline row untouched.
func addMissingResults(base, fresh []Result) []Result {
	have := make(map[string]bool, len(base))
	for _, r := range base {
		have[r.key()] = true
	}
	for _, r := range fresh {
		if !have[r.key()] {
			have[r.key()] = true
			base = append(base, r)
		}
	}
	return base
}
