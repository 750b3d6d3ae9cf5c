//go:build !race

// The million-node pipeline test is gated out of race builds: the race
// detector multiplies both its memory (shadow state over ~100MB of CSR
// arrays) and its wall clock several-fold, and the sharing it would
// check is already covered at small n by TestFrozenSharedConcurrently
// in the race shard.

package dip

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
)

// TestMillionNodeGridCertify is the bulk-pipeline acceptance test: a
// 10^6-node grid streams through the CSR Builder, freezes exactly once,
// and certifies through both engines, all under an explicit heap
// ceiling. The ceiling is generous against today's footprint (the
// channel engine's per-node goroutines and reusable views dominate) but
// turns an accidental O(n) map or per-node blowup into a test failure
// rather than a silent regression.
func TestMillionNodeGridCertify(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node pipeline test skipped in -short mode")
	}
	const rows, cols = 1000, 1000
	const heapCeiling = 6 << 30 // bytes, whole pipeline including channel engine

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

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
	g := b.MustFinish()
	if !g.Sealed() {
		t.Fatal("builder output is not sealed")
	}
	if g.N() != rows*cols || g.M() != rows*(cols-1)+(rows-1)*cols {
		t.Fatalf("grid has n=%d m=%d", g.N(), g.M())
	}

	inst := NewInstance(g)
	before := FreezeCount()
	runner := NewRunner(inst) // freezes inst
	if h := heap(); h > 1<<30 {
		t.Fatalf("heap after build+freeze = %d MiB, ceiling 1024 MiB", h>>20)
	}

	// Node-labels-only prover: the bulk path's point is that certifying
	// a million nodes never touches a map[Edge] anything.
	var labels [256]bitio.String
	for i := range labels {
		labels[i] = bitio.FromUint(uint64(i), 8)
	}
	node := make([]bitio.String, g.N())
	for v := range node {
		node[v] = labels[v%256]
	}
	prover := &fixedProver{assigns: []*Assignment{{Node: node}, {Node: node}}}
	verifier := echoVerifier{decide: func(view *View) bool { return view.Own(0).Len() > 0 }}

	res, err := runner.Run(prover, verifier, 2, 1, rand.New(rand.NewSource(1)))
	if err != nil || !res.Accepted {
		t.Fatalf("orchestrated engine: accepted=%v err=%v", res != nil && res.Accepted, err)
	}
	cres, err := newChannelRunner(inst).Run(prover, verifier, 2, 1, rand.New(rand.NewSource(1)))
	if err != nil || !cres.Accepted {
		t.Fatalf("channel engine: accepted=%v err=%v", cres != nil && cres.Accepted, err)
	}
	if res.Stats.MaxLabelBits != cres.Stats.MaxLabelBits || res.Stats.TotalLabelBits != cres.Stats.TotalLabelBits {
		t.Fatalf("engines disagree: runner %+v channels %+v", res.Stats, cres.Stats)
	}

	if got := FreezeCount() - before; got != 1 {
		t.Fatalf("freeze count delta = %d across both engines, want exactly 1", got)
	}
	if h := heap(); h > heapCeiling {
		t.Fatalf("heap after certify = %d MiB, ceiling %d MiB", h>>20, uint64(heapCeiling)>>20)
	}
}
