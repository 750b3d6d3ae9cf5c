package protocol

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
)

// conformanceSizes is the size sweep of the registry-wide tests: every
// registered protocol must behave at every one of these sizes.
var conformanceSizes = []int{64, 256, 1024}

// buildInstance materializes a descriptor's natural yes-instance at
// size n, witnesses included.
func buildInstance(t *testing.T, d *Descriptor, n int, seed int64) *Instance {
	t.Helper()
	spec := gen.FamilySpec{Family: d.Family, N: n, ChordProb: -1}
	g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("%s: building %s instance at n=%d: %v", d.Name, d.Family, n, err)
	}
	return &Instance{G: g, PathPos: pos, Rotation: rot}
}

// TestRegistryComplete: the seven paper protocols are registered and
// carry full metadata (Register enforces most fields; this pins the
// exact name set so a dropped registration fails loudly).
func TestRegistryComplete(t *testing.T) {
	want := []string{"embedding", "outerplanar", "pathouter", "planarity", "pls", "sp", "treewidth2"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registered %v, want %v", got, want)
		}
	}
	for _, d := range All() {
		if d.Suite == "" || d.Summary == "" {
			t.Errorf("%s: missing suite or summary", d.Name)
		}
		if got, ok := Get(d.Name); !ok || got != d {
			t.Errorf("Get(%q) did not return the registered descriptor", d.Name)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get of unknown name succeeded")
	}
}

// TestGenConsistency: the registry and the generator families agree —
// every descriptor's Family is generatable, and every family's
// DefaultProtocol is registered.
func TestGenConsistency(t *testing.T) {
	families := map[string]bool{}
	for _, f := range gen.Families() {
		families[f] = true
	}
	for _, d := range All() {
		if !families[d.Family] {
			t.Errorf("%s: family %q is not a gen family", d.Name, d.Family)
		}
	}
	for _, f := range gen.Families() {
		p := gen.FamilySpec{Family: f}.DefaultProtocol()
		if _, ok := Get(p); !ok {
			t.Errorf("family %s: default protocol %q is not registered", f, p)
		}
	}
}

// TestBoundConformance: on every registered protocol and every sweep
// size, an honest run on the protocol's natural yes-instance accepts
// and its measured proof size stays within the descriptor's declared
// theorem bound. This is the paper's proof-size claims as a
// machine-checked invariant.
func TestBoundConformance(t *testing.T) {
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			for _, n := range conformanceSizes {
				seed := int64(1000 + n)
				inst := buildInstance(t, d, n, seed)
				out, err := d.Run(context.Background(), inst, seed)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if !out.Accepted || out.ProverFailed {
					t.Fatalf("n=%d: honest run rejected (accepted=%v prover_failed=%v)", n, out.Accepted, out.ProverFailed)
				}
				bound := d.ProofSizeBound(inst.G.N(), inst.G.MaxDegree())
				if bound <= 0 {
					t.Fatalf("n=%d: non-positive bound %d", n, bound)
				}
				if out.ProofSizeBits > bound {
					t.Errorf("n=%d: proof size %d bits exceeds declared bound %d (%s)",
						n, out.ProofSizeBits, bound, d.BoundExpr)
				}
				if out.Rounds != d.Rounds {
					t.Errorf("n=%d: outcome reports %d rounds, descriptor declares %d", n, out.Rounds, d.Rounds)
				}
			}
		})
	}
}

// TestRoundsMatchTrace: the descriptor's declared round count is what
// the observability layer records for the root execution span — no
// consumer-side round literals can drift from the engine's reality.
func TestRoundsMatchTrace(t *testing.T) {
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			inst := buildInstance(t, d, 64, 7)
			collect := obs.NewCollect()
			out, err := d.Run(context.Background(), inst, 7, dip.WithTracer(collect))
			if err != nil {
				t.Fatal(err)
			}
			runs := collect.Runs()
			if len(runs) == 0 {
				t.Fatal("no execution spans traced")
			}
			if runs[0].Rounds != d.Rounds {
				t.Errorf("trace records %d rounds at the root span, descriptor declares %d", runs[0].Rounds, d.Rounds)
			}
			if out.Rounds != d.Rounds {
				t.Errorf("outcome reports %d rounds, descriptor declares %d", out.Rounds, d.Rounds)
			}
		})
	}
}

// TestCrossEngineFingerprints: for every registered protocol, the
// orchestrated Runner and the message-passing channel engine produce
// byte-identical deterministic trace fingerprints on the same
// (instance, seed) — the registry-wide generalization of the old
// hand-picked pathouter cross-engine case.
func TestCrossEngineFingerprints(t *testing.T) {
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			inst := buildInstance(t, d, 64, 11)
			fingerprints := map[string]string{}
			for _, engine := range []string{obs.EngineRunner, obs.EngineChannels} {
				collect := obs.NewCollect()
				out, err := d.Run(context.Background(), inst, 11,
					onEngine(engine, dip.WithTracer(collect))...)
				if err != nil {
					t.Fatalf("engine %s: %v", engine, err)
				}
				if !out.Accepted {
					t.Fatalf("engine %s: honest run rejected", engine)
				}
				fingerprints[engine] = collect.Fingerprint()
			}
			if fingerprints[obs.EngineRunner] != fingerprints[obs.EngineChannels] {
				t.Errorf("engines diverge:\nrunner:   %s\nchannels: %s",
					fingerprints[obs.EngineRunner], fingerprints[obs.EngineChannels])
			}
		})
	}
}

// TestRunRejectsNilInstance: uniform input validation at the registry
// boundary.
func TestRunRejectsNilInstance(t *testing.T) {
	d, _ := Get("pathouter")
	if _, err := d.Run(context.Background(), nil, 1); err == nil {
		t.Error("nil instance accepted")
	}
	if _, err := d.Run(context.Background(), &Instance{}, 1); err == nil {
		t.Error("instance without graph accepted")
	}
}

// onEngine returns opts, with the option that selects the channel
// engine added when engine is obs.EngineChannels; without it a run
// executes on a Runner.
func onEngine(engine string, opts ...dip.RunOption) []dip.RunOption {
	if engine == obs.EngineChannels {
		opts = append(opts, dip.WithChannelEngine())
	}
	return opts
}

// BenchmarkRegistryDispatch compares a full run dispatched through the
// registry (Get + Descriptor.Run) against calling the protocol adapter
// directly: the indirection must cost nothing measurable next to the
// protocol execution itself.
func BenchmarkRegistryDispatch(b *testing.B) {
	g := pathGraph(b, 64)
	pos := make([]int, g.N())
	for v := range pos {
		pos[v] = v
	}
	inst := &Instance{G: g, PathPos: pos}
	b.Run("registry", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, ok := Get("pls")
			if !ok {
				b.Fatal("pls not registered")
			}
			if _, err := d.Run(context.Background(), inst, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := runPLS(inst, rand.New(rand.NewSource(5))); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func pathGraph(tb testing.TB, n int) *graph.Graph {
	tb.Helper()
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		if err := g.AddEdge(v, v+1); err != nil {
			tb.Fatal(err)
		}
	}
	return g
}
