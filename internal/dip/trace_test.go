package dip

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/obs"
)

// traceProto builds a small fixed 2P/1V protocol on a path.
func traceProto(g *graph.Graph) (Prover, Verifier) {
	a0 := NewEdgeAssignment(g)
	for v := 0; v < g.N(); v++ {
		a0.Node[v] = bitio.FromUint(uint64(v%8), 3)
	}
	a0.Edge[g.EdgeID(0, 1)] = bitio.FromUint(3, 2)
	a1 := NewAssignment(g)
	for v := 0; v < g.N(); v++ {
		a1.Node[v] = bitio.FromUint(uint64(v%32), 5)
	}
	return &fixedProver{assigns: []*Assignment{a0, a1}},
		echoVerifier{decide: func(view *View) bool { return view.v != 2 }}
}

func TestRunnerEmitsEventSequence(t *testing.T) {
	g := pathGraph(5)
	inst := NewInstance(g)
	p, v := traceProto(g)
	collect := obs.NewCollect()
	res, err := NewRunner(inst).Run(p, v, 2, 1, rand.New(rand.NewSource(1)),
		WithTracer(collect), WithProtocol("fixed"), WithSpan("root"))
	if err != nil {
		t.Fatal(err)
	}
	runs := collect.Runs()
	if len(runs) != 1 {
		t.Fatalf("got %d runs", len(runs))
	}
	m := runs[0]
	if m.Protocol != "fixed" || m.Span != "root" || m.Engine != obs.EngineRunner {
		t.Fatalf("identity: %+v", m)
	}
	if m.Nodes != 5 || m.Rounds != 3 {
		t.Fatalf("shape: nodes=%d rounds=%d", m.Nodes, m.Rounds)
	}
	// 2 prover rounds + 1 verifier round.
	if len(m.RoundMetrics) != 3 {
		t.Fatalf("round metrics: %d", len(m.RoundMetrics))
	}
	if m.RoundMetrics[0].Phase != "prover" || m.RoundMetrics[1].Phase != "verifier" || m.RoundMetrics[2].Phase != "prover" {
		t.Fatalf("phases: %+v", m.RoundMetrics)
	}
	// Round-0 label histogram must match Stats.LabelBits[0].
	if m.RoundMetrics[0].LabelBits != obs.HistOf(res.Stats.LabelBits[0]) {
		t.Fatalf("hist mismatch: %+v vs %+v", m.RoundMetrics[0].LabelBits, obs.HistOf(res.Stats.LabelBits[0]))
	}
	// Node 2 rejects.
	if m.NodeAccepts != 4 || m.NodeRejects != 1 || m.Accepted {
		t.Fatalf("decide: %d/%d accepted=%t", m.NodeAccepts, m.NodeRejects, m.Accepted)
	}
	if m.MaxLabelBits != res.Stats.MaxLabelBits || m.TotalLabelBits != res.Stats.TotalLabelBits {
		t.Fatalf("stats mismatch")
	}
}

func TestRunnerTracedErrorBalancesSpan(t *testing.T) {
	g := pathGraph(3)
	inst := NewInstance(g)
	collect := obs.NewCollect()
	_, err := NewRunner(inst).Run(&fixedProver{fail: true},
		echoVerifier{decide: func(*View) bool { return true }}, 1, 0,
		rand.New(rand.NewSource(2)), WithTracer(collect))
	if err == nil {
		t.Fatal("prover error swallowed")
	}
	runs := collect.Runs()
	if len(runs) != 1 {
		t.Fatalf("failed run not closed: %d runs", len(runs))
	}
	if runs[0].Err == "" || runs[0].Accepted {
		t.Fatalf("failed run metrics: %+v", runs[0])
	}
}

func TestWithTracerNopIsDisabled(t *testing.T) {
	cfg := NewRunConfig(WithTracer(obs.NopTracer{}))
	if cfg.Tracer != nil {
		t.Fatal("NopTracer should normalize to nil (zero-cost hot path)")
	}
	cfg = NewRunConfig(WithTracer(nil))
	if cfg.Tracer != nil {
		t.Fatal("nil tracer should stay nil")
	}
	if opts := cfg.Child("sub"); opts != nil {
		t.Fatal("Child of untraced config should be nil")
	}
}

func TestRunConfigChildSpans(t *testing.T) {
	c := obs.NewCollect()
	cfg := NewRunConfig(WithTracer(c), WithSpan("a"))
	child := NewRunConfig(cfg.Child("b")...)
	if child.Span != "a/b" || child.Tracer == nil {
		t.Fatalf("child: %+v", child)
	}
	root := NewRunConfig(WithTracer(c))
	if NewRunConfig(root.Child("x")...).Span != "x" {
		t.Fatal("root child span")
	}
}

func TestCompositeSpanBalancesOnFailure(t *testing.T) {
	c := obs.NewCollect()
	cfg := NewRunConfig(WithTracer(c))
	var res *Outcome // the composite failed before it had an outcome
	end := cfg.CompositeSpan("comp", 4, 5, &res)
	end()
	runs := c.Runs()
	if len(runs) != 1 || runs[0].Engine != obs.EngineComposite || runs[0].Accepted {
		t.Fatalf("composite span: %+v", runs)
	}
}

// perVertex adapts a per-vertex visitor to the pool's chunked range
// interface, so coverage tests keep asserting at vertex granularity.
func perVertex(fn func(w, v int)) func(w, lo, hi int) {
	return func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			fn(w, v)
		}
	}
}

// batchOnce mirrors Run's pool setup for one parallelNodes batch: a
// fresh persistent pool when the machine allows more than one worker,
// the inline path otherwise.
func batchOnce(r *Runner, fn func(w, v int), timed bool) (int, []int64) {
	var pool *nodePool
	if w := poolSizeFor(r.fi.n); w > 1 {
		pool = newNodePool(w)
		defer pool.close()
	}
	return r.parallelNodes(pool, perVertex(fn), timed)
}

// TestParallelNodesCoversAllVertices guards the worker-pool rewrite:
// every vertex must be visited exactly once, whatever GOMAXPROCS is.
func TestParallelNodesCoversAllVertices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 257, 5000} {
		r := NewRunner(NewInstance(pathGraph(max(n, 1))))
		if n == 0 {
			r = NewRunner(NewInstance(graph.New(0)))
		}
		var visits sync.Map
		var count atomic.Int64
		workers, _ := batchOnce(r, func(w, v int) {
			if _, dup := visits.LoadOrStore(v, true); dup {
				t.Errorf("n=%d: vertex %d visited twice", n, v)
			}
			count.Add(1)
		}, false)
		if int(count.Load()) != r.inst.G.N() {
			t.Fatalf("n=%d: visited %d of %d", n, count.Load(), r.inst.G.N())
		}
		if r.inst.G.N() > 0 && (workers < 1 || workers > runtime.GOMAXPROCS(0)) {
			t.Fatalf("n=%d: workers=%d", n, workers)
		}
	}
}

// TestNodePoolPersistsAcrossBatches pins the persistent-pool contract
// directly: one pool serves many batches (as Run reuses it across
// verifier rounds and the decide phase) with full coverage each time,
// workers keep stable indices within the pool size, and timed batches
// report one busy-time entry per worker. GOMAXPROCS is forced above one
// so the test exercises real handoff even on single-CPU machines.
func TestNodePoolPersistsAcrossBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, workers = 1000, 4
	pool := newNodePool(workers)
	defer pool.close()
	for batch := 0; batch < 5; batch++ {
		var count atomic.Int64
		got, batchNS := pool.run(perVertex(func(w, v int) {
			if w < 0 || w >= workers {
				t.Errorf("batch %d: worker index %d out of range", batch, w)
			}
			count.Add(1)
		}), n, batch%2 == 0)
		if int(count.Load()) != n {
			t.Fatalf("batch %d: visited %d of %d", batch, count.Load(), n)
		}
		if got != workers {
			t.Fatalf("batch %d: workers=%d", batch, got)
		}
		if batch%2 == 0 && len(batchNS) != workers {
			t.Fatalf("batch %d: %d timings for %d workers", batch, len(batchNS), workers)
		}
		if batch%2 == 1 && batchNS != nil {
			t.Fatalf("batch %d: untimed batch reported timings", batch)
		}
	}
}

func TestParallelNodesTimedReportsBatches(t *testing.T) {
	r := NewRunner(NewInstance(pathGraph(64)))
	workers, batchNS := batchOnce(r, func(int, int) {}, true)
	if len(batchNS) != workers {
		t.Fatalf("batch timings: %d for %d workers", len(batchNS), workers)
	}
}

// BenchmarkParallelNodes compares the worker pool against the previous
// goroutine-per-vertex strategy; the pool must not regress.
func BenchmarkParallelNodes(b *testing.B) {
	work := func(w, v int) {
		s := 0
		for i := 0; i < 64; i++ {
			s += v * i
		}
		_ = s
	}
	for _, n := range []int{1024, 16384} {
		r := NewRunner(NewInstance(pathGraph(n)))
		b.Run(fmt.Sprintf("pool/n=%d", n), func(b *testing.B) {
			var pool *nodePool
			if w := poolSizeFor(n); w > 1 {
				pool = newNodePool(w)
				defer pool.close()
			}
			for i := 0; i < b.N; i++ {
				r.parallelNodes(pool, perVertex(work), false)
			}
		})
		b.Run(fmt.Sprintf("spawn/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spawnPerVertex(n, func(v int) { work(0, v) })
			}
		})
	}
}

// spawnPerVertex is the pre-pool reference implementation (one goroutine
// per vertex in batches of 4096), kept only as the benchmark baseline.
func spawnPerVertex(n int, fn func(v int)) {
	const batch = 4096
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		var wg sync.WaitGroup
		for v := lo; v < hi; v++ {
			wg.Add(1)
			go func(v int) {
				defer wg.Done()
				fn(v)
			}(v)
		}
		wg.Wait()
	}
}

// BenchmarkTracerOverhead measures Runner.Run on a real-shaped fixed
// protocol with tracing disabled ("off"), with the NopTracer option
// ("nop" — must be indistinguishable from off: the option normalizes to
// the nil fast path), and with a live collector ("collect").
func BenchmarkTracerOverhead(b *testing.B) {
	g := pathGraph(2048)
	inst := NewInstance(g)
	p, v := traceProto(g)
	r := NewRunner(inst)
	cases := []struct {
		name string
		opts []RunOption
	}{
		{"off", nil},
		{"nop", []RunOption{WithTracer(obs.NopTracer{})}},
		{"collect", []RunOption{WithTracer(obs.NewCollect())}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(p, v, 2, 1, rng, c.opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
