package protocol

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dip"
	"repro/internal/obs"
)

// TestRegistryRunAllocs gates the allocation cost of whole registry
// runs, prover included, at sizes where the label codec and the pooled
// pathouter decide scratch dominate the verifier side. It gates both
// kinds of run an instance sees: a first run, which prepares the
// coin-free half and drops it, and a run from the prepared value an
// instance stores on its second run. The bit-at-a-time codec with
// per-node decide tables allocated about 333,600 (pathouter, n=4096)
// and 551,500 (planarity, n=2048) times per run; the word-at-a-time
// codec with pooled scratch about 104,000 and 243,000 (121,000 and
// 261,000 under the race detector, which drops a quarter of sync.Pool
// puts), which a first run still costs. A run from the stored value
// costs about 47,000 and 87,000 (64,000 and 106,000 under the race
// detector). The ceilings leave room for allocator differences
// between Go releases; internal/pathouter's TestDecideScratchPooled is
// the tight gate on the pool itself.
func TestRegistryRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		name          string
		n             int
		first, stored float64
	}{
		{"pathouter", 4096, 150_000, 80_000},
		{"planarity", 2048, 330_000, 130_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, _ := Get(tc.name)
			inst := buildInstance(t, d, tc.n, 1)
			seed := int64(0)
			run := func(t *testing.T) {
				seed++
				out, err := d.Run(context.Background(), inst, seed)
				if err != nil || !out.Accepted {
					t.Fatalf("seed %d: accepted=%v err=%v", seed, out != nil && out.Accepted, err)
				}
			}
			run(t) // warm: freeze the instance, fill the scratch pool
			t.Run("first", func(t *testing.T) {
				allocs := testing.AllocsPerRun(3, func() {
					inst.memoMu.Lock()
					inst.memos = nil // make the run a first run
					inst.memoMu.Unlock()
					run(t)
				})
				if allocs > tc.first {
					t.Errorf("%s n=%d: %.0f allocs per first run, want <= %.0f", tc.name, tc.n, allocs, tc.first)
				}
			})
			t.Run("stored", func(t *testing.T) {
				run(t) // a second run: store the prepared value
				allocs := testing.AllocsPerRun(3, func() { run(t) })
				if allocs > tc.stored {
					t.Errorf("%s n=%d: %.0f allocs per run from the stored value, want <= %.0f", tc.name, tc.n, allocs, tc.stored)
				}
			})
		})
	}
}

// TestConcurrentRunsMatchSerial: planarity runs on different instances
// from several goroutines at once, each engine on several workers, must
// produce the fingerprints of the same runs made one at a time. Every
// engine worker of every run draws from the one pool of pathouter decide
// scratch, so a scratch shared by two deciders would show here (and
// under -race).
func TestConcurrentRunsMatchSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	d, _ := Get("planarity")
	sizes := []int{96, 160, 224, 288}
	insts := make([]*Instance, len(sizes))
	for i, n := range sizes {
		insts[i] = buildInstance(t, d, n, int64(i+1))
	}
	fingerprint := func(i int) (string, error) {
		collect := obs.NewCollect()
		out, err := d.Run(context.Background(), insts[i], int64(7*i+3), dip.WithTracer(collect))
		if err != nil {
			return "", err
		}
		if !out.Accepted {
			return "", nil
		}
		return collect.Fingerprint(), nil
	}
	want := make([]string, len(insts))
	for i := range insts {
		fp, err := fingerprint(i)
		if err != nil || fp == "" {
			t.Fatalf("serial run %d (n=%d): err=%v accepted=%v", i, sizes[i], err, fp != "")
		}
		want[i] = fp
	}
	got := make([]string, len(insts))
	errs := make([]error, len(insts))
	var wg sync.WaitGroup
	for i := range insts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = fingerprint(i)
		}(i)
	}
	wg.Wait()
	for i := range insts {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d (n=%d): %v", i, sizes[i], errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("concurrent run %d (n=%d) diverges from the serial run:\nconcurrent: %s\nserial:     %s",
				i, sizes[i], got[i], want[i])
		}
	}
}
