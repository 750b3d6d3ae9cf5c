package benchkit

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/graph"
)

// ScalingName is the shared Name of every scaling-table row; rows are
// distinguished by their N and GOMAXPROCS fields.
const ScalingName = "ScalingCertify/grid"

// ScalingSizes returns the default grid sizes of the scaling table.
// quick drops the million-node tier for CI smokes.
func ScalingSizes(quick bool) []int {
	if quick {
		return []int{10_000, 100_000}
	}
	return []int{10_000, 100_000, 1_000_000}
}

// ScalingProcs returns the default GOMAXPROCS column of the table:
// {1, 2, 4, NumCPU}, deduplicated and sorted. NumCPU extends the sweep
// on big hosts (does speedup keep climbing past 4 cores?); the fixed
// {1, 2, 4} base keeps rows comparable across machines. On a host with
// fewer than 4 CPUs the oversubscribed cells still run — they measure
// scheduling overhead rather than speedup, which the snapshot note's
// NumCPU records.
func ScalingProcs() []int {
	procs := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(procs)
	out := procs[:0]
	for i, p := range procs {
		if i == 0 || p != procs[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// builderGrid streams a rows×cols grid through the CSR Builder: the
// bulk construction path, no per-edge map work.
func builderGrid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	b.Grow(rows*(cols-1) + (rows-1)*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustFinish()
}

// scalingFixture builds the near-square grid of about n nodes and a
// node-labels-only fixed prover (P=3 rounds). Edge labels are
// deliberately absent: the workload measures the engine's per-node
// scaling, not label traffic.
func scalingFixture(n, proverRounds int) (*dip.Instance, *fixedProver) {
	rows := int(math.Sqrt(float64(n)))
	if rows < 2 {
		rows = 2
	}
	cols := (n + rows - 1) / rows
	g := builderGrid(rows, cols)

	var labels [256]bitio.String
	for i := range labels {
		labels[i] = bitio.FromUint(uint64(i), 8)
	}
	assigns := make([]*dip.Assignment, proverRounds)
	for pr := range assigns {
		node := make([]bitio.String, g.N())
		for v := range node {
			node[v] = labels[v%256]
		}
		assigns[pr] = &dip.Assignment{Node: node}
	}

	return dip.NewInstance(g), &fixedProver{assigns: assigns}
}

// Scaling measures the engine on builder-built grids over the
// n × GOMAXPROCS table: every (n, P) cell certifies the same instance
// (frozen exactly once per n, by the first cell's NewRunner, outside
// the timed region) with P=3/V=2 rounds, so the cell isolates how the
// per-node verifier work scales with worker count. GOMAXPROCS is set
// around each cell and restored before returning. On a single-CPU host
// the P>1 rows measure scheduling overhead, not speedup; the snapshot
// note records NumCPU so readers can tell which regime a file was
// written in.
func Scaling(sizes, procs []int) ([]Result, error) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var out []Result
	var benchErr error
	v := hotPathVerifier{rounds: 3}
	for _, n := range sizes {
		inst, prover := scalingFixture(n, 3)
		nodes := inst.G.N()
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			runner := dip.NewRunner(inst)
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := runner.Run(prover, v, 3, 2, rand.New(rand.NewSource(int64(i))))
					if err != nil || !res.Accepted {
						benchErr = fmt.Errorf("benchkit: scaling n=%d procs=%d: accepted=%v err=%v",
							nodes, p, res != nil && res.Accepted, err)
						b.FailNow()
					}
				}
			})
			runtime.GOMAXPROCS(prev)
			if benchErr != nil {
				return nil, benchErr
			}
			res := toResult(ScalingName, r)
			res.N = nodes
			res.GOMAXPROCS = p
			out = append(out, res)
		}
	}
	FillSpeedups(out)
	return out, nil
}

// FillSpeedups computes the Speedup column of scaling rows in place:
// for every n with a GOMAXPROCS=1 row, each row's speedup is
// ns/op(P=1) divided by its own ns/op (so P=1 rows read 1.0 and a
// perfectly scaling P=4 row reads 4.0). Rows without a serial partner
// are left at zero and stay omitted from the JSON.
func FillSpeedups(results []Result) {
	serial := map[int]int64{}
	for _, r := range results {
		if r.Name == ScalingName && r.GOMAXPROCS == 1 && r.N > 0 {
			serial[r.N] = r.NsPerOp
		}
	}
	for i := range results {
		r := &results[i]
		if r.Name != ScalingName || r.N == 0 || r.NsPerOp <= 0 {
			continue
		}
		if s, ok := serial[r.N]; ok {
			r.Speedup = math.Round(float64(s)/float64(r.NsPerOp)*100) / 100
		}
	}
}

// AssertSpeedup checks the scaling table's CI invariant: for every n
// present, ns/op at the highest measured GOMAXPROCS must not exceed
// tolerance × ns/op at GOMAXPROCS=1. tolerance 1.0 demands parity;
// values slightly above absorb scheduler noise on small hosts.
func AssertSpeedup(results []Result, tolerance float64) error {
	serial := map[int]int64{}  // n -> ns/op at P=1
	best := map[int][2]int64{} // n -> (P, ns/op) at highest P
	for _, r := range results {
		if r.Name != ScalingName || r.N == 0 {
			continue
		}
		if r.GOMAXPROCS == 1 {
			serial[r.N] = r.NsPerOp
		} else if r.GOMAXPROCS > int(best[r.N][0]) {
			best[r.N] = [2]int64{int64(r.GOMAXPROCS), r.NsPerOp}
		}
	}
	for n, s := range serial {
		b, ok := best[n]
		if !ok {
			continue
		}
		if limit := float64(s) * tolerance; float64(b[1]) > limit {
			return fmt.Errorf(
				"benchkit: scaling regression at n=%d: GOMAXPROCS=%d took %d ns/op, GOMAXPROCS=1 took %d ns/op (limit %.0f ns/op at tolerance %.2f)",
				n, b[0], b[1], s, limit, tolerance)
		}
	}
	return nil
}
