package protocol

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chaos"
)

// sharedStrategies is the run order on a shared instance: every chaos
// strategy, then the honest prover without an adversary, so adversarial
// runs reach the stored prepared value before the honest run reads it.
func sharedStrategies() []string {
	return append(chaos.Names(), "-")
}

// TestSharedInstanceMatchesFresh: runs through one shared Instance —
// most of them from its stored prepared value — must match runs with
// the same seed on a fresh Instance, row for row. The golden table
// builds a fresh Instance for every row, so it never reaches a stored
// value; this test does, and fails if a run mutates it (a chaos
// strategy corrupting a shared first-round assignment) or if it goes
// stale.
func TestSharedInstanceMatchesFresh(t *testing.T) {
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			for _, n := range goldenSizes {
				for _, family := range []string{d.Family, d.NoFamily} {
					shared := goldenInstance(t, d, family, n)
					for pass := int64(0); pass < 2; pass++ {
						seed := goldenSeed + pass
						for _, strategy := range sharedStrategies() {
							got, err := runLine(d, shared, family, strategy, n, seed)
							if err != nil {
								t.Fatal(err)
							}
							want, err := runLine(d, goldenInstance(t, d, family, n), family, strategy, n, seed)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Errorf("shared instance drifted from a fresh one:\n fresh  %s\n shared %s", want, got)
							}
						}
					}
				}
			}
		})
	}
}

// storedPrepared reports whether in keeps a prepared value for d. It
// reads the memo without its once, so call it only between runs.
func storedPrepared(in *Instance, d *Descriptor) bool {
	in.memoMu.Lock()
	defer in.memoMu.Unlock()
	m := in.memos[d]
	return m != nil && m.value != nil
}

// TestPreparedStoredFromSecondRun pins the retention rule: an
// instance's first run of a descriptor prepares and drops the value,
// the second prepares it once more and stores it, and every later run
// uses the stored value without preparing.
func TestPreparedStoredFromSecondRun(t *testing.T) {
	for _, reg := range All() {
		t.Run(reg.Name, func(t *testing.T) {
			d := *reg
			prepares := 0
			d.Prepare = func(in *Instance) (any, error) {
				prepares++
				return reg.Prepare(in)
			}
			inst := buildInstance(t, &d, 64, 1)
			run := func(seed int64) {
				t.Helper()
				out, err := d.Run(context.Background(), inst, seed)
				if err != nil || !out.Accepted {
					t.Fatalf("seed %d: accepted=%v err=%v", seed, out != nil && out.Accepted, err)
				}
			}
			run(1)
			if storedPrepared(inst, &d) {
				t.Fatal("one run left a prepared value on the instance")
			}
			run(2)
			if !storedPrepared(inst, &d) {
				t.Fatal("a second run did not store the prepared value")
			}
			run(3)
			run(4)
			if prepares != 2 {
				t.Fatalf("four runs prepared %d times, want 2", prepares)
			}
		})
	}
}

// TestConcurrentRunsSharePrepared: honest and chaos runs started at
// once on one shared Instance race its first and second runs to store
// the prepared value, then read it together. Every run must match the
// run with the same seed on a fresh Instance. The race detector sees
// a prepared value written by one run and read by the others, and any
// run writing into shared prover state.
func TestConcurrentRunsSharePrepared(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	type job struct {
		strategy string
		seed     int64
	}
	var jobs []job
	for seed := int64(1); seed <= 2; seed++ {
		for _, strategy := range sharedStrategies() {
			jobs = append(jobs, job{strategy, seed})
		}
	}
	for _, name := range []string{"planarity", "embedding", "pathouter"} {
		d, _ := Get(name)
		t.Run(name, func(t *testing.T) {
			const n = 64
			want := make([]string, len(jobs))
			for i, j := range jobs {
				line, err := runLine(d, goldenInstance(t, d, d.Family, n), d.Family, j.strategy, n, j.seed)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = line
			}
			shared := goldenInstance(t, d, d.Family, n)
			got := make([]string, len(jobs))
			errs := make([]error, len(jobs))
			var wg sync.WaitGroup
			for i, j := range jobs {
				wg.Add(1)
				go func(i int, j job) {
					defer wg.Done()
					got[i], errs[i] = runLine(d, shared, d.Family, j.strategy, n, j.seed)
				}(i, j)
			}
			wg.Wait()
			for i := range jobs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if got[i] != want[i] {
					t.Errorf("concurrent run on the shared instance drifted from a fresh one:\n fresh  %s\n shared %s", want[i], got[i])
				}
			}
		})
	}
}
