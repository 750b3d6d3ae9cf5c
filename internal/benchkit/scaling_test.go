package benchkit

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dip"
)

// TestScalingProcsShape: the GOMAXPROCS column always contains 1, is
// strictly increasing, and contains NumCPU.
func TestScalingProcsShape(t *testing.T) {
	procs := ScalingProcs()
	if len(procs) == 0 || procs[0] != 1 {
		t.Fatalf("ScalingProcs() = %v, want leading 1", procs)
	}
	sawCPU := false
	for i, p := range procs {
		if i > 0 && p <= procs[i-1] {
			t.Fatalf("ScalingProcs() = %v, not strictly increasing", procs)
		}
		if p == runtime.NumCPU() {
			sawCPU = true
		}
	}
	if !sawCPU {
		t.Fatalf("ScalingProcs() = %v, missing NumCPU=%d", procs, runtime.NumCPU())
	}
}

// TestFillSpeedups: P=1 rows read 1.0, faster parallel rows read the
// serial/parallel ratio, rows without a serial partner stay zero.
func TestFillSpeedups(t *testing.T) {
	rows := []Result{
		{Name: ScalingName, N: 100, GOMAXPROCS: 1, NsPerOp: 800},
		{Name: ScalingName, N: 100, GOMAXPROCS: 4, NsPerOp: 200},
		{Name: ScalingName, N: 999, GOMAXPROCS: 4, NsPerOp: 100},
		{Name: "RunnerHotPath", NsPerOp: 50},
	}
	FillSpeedups(rows)
	if rows[0].Speedup != 1.0 {
		t.Fatalf("serial speedup = %v, want 1.0", rows[0].Speedup)
	}
	if rows[1].Speedup != 4.0 {
		t.Fatalf("parallel speedup = %v, want 4.0", rows[1].Speedup)
	}
	if rows[2].Speedup != 0 || rows[3].Speedup != 0 {
		t.Fatalf("orphan rows got speedups: %+v", rows[2:])
	}
}

// TestScalingCertifyAllocs is the allocs-per-node regression gate for
// the bulk certify path the scaling table measures — the existing
// AllocsPerRun tests in internal/dip cover the 10k map-built hot path,
// not this one. The engine must run in O(P + rounds) allocations per op
// (round slices, stats, result — nothing per node). The channel
// engine's per-node budget on the same fixture is TestChannelCertifyAllocs
// in internal/dip, next to the engine.
func TestScalingCertifyAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement at n=10k")
	}
	inst, prover := scalingFixture(10_000, 3)
	n := inst.G.N()
	v := hotPathVerifier{rounds: 3}

	runner := dip.NewRunner(inst)
	run := func() {
		res, err := runner.Run(prover, v, 3, 2, rand.New(rand.NewSource(7)))
		if err != nil || !res.Accepted {
			t.Fatalf("runner: accepted=%v err=%v", res != nil && res.Accepted, err)
		}
	}
	run() // warm scratch and per-node state
	// AllocsPerRun pins GOMAXPROCS=1, so the budget is the worker-count-
	// independent part: a handful of round-granular slices. 100 is ~25x
	// the measured steady state and ~0.01 allocs/node — any per-node
	// allocation blows straight through it.
	if allocs := testing.AllocsPerRun(10, run); allocs > 100 {
		t.Errorf("Runner ScalingCertify allocs/op = %.0f, want <= 100 (O(P+rounds), not O(n=%d))", allocs, n)
	}
}
