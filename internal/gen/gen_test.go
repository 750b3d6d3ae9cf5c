package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/planar"
	"repro/internal/sp"
)

func TestPathOuterplanarValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		inst := PathOuterplanar(rng, n, 0.5)
		if inst.G.N() != n || !inst.G.IsConnected() {
			t.Fatalf("trial %d: bad graph", trial)
		}
		if !planar.ProperlyNested(inst.G, inst.Pos) {
			t.Fatalf("trial %d: witness path not properly nested", trial)
		}
	}
}

func TestBiconnectedOuterplanarValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(40)
		inst := BiconnectedOuterplanar(rng, n, 0.4)
		if !planar.IsOuterplanar(inst.G) {
			t.Fatalf("trial %d: not outerplanar (n=%d m=%d)", trial, inst.G.N(), inst.G.M())
		}
		for i := range inst.Cycle {
			if !inst.G.HasEdge(inst.Cycle[i], inst.Cycle[(i+1)%n]) {
				t.Fatalf("trial %d: witness cycle broken", trial)
			}
		}
	}
}

func TestOuterplanarValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		inst := Outerplanar(rng, n, 0.4)
		if inst.G.N() != n || !inst.G.IsConnected() {
			t.Fatalf("trial %d: bad graph", trial)
		}
		if !planar.IsOuterplanar(inst.G) {
			t.Fatalf("trial %d: not outerplanar", trial)
		}
	}
}

func TestTriangulationValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(60)
		inst := Triangulation(rng, n)
		if inst.G.M() != 3*n-6 {
			t.Fatalf("trial %d: m=%d, want %d", trial, inst.G.M(), 3*n-6)
		}
		if !inst.Rot.IsPlanarEmbedding(inst.G) {
			t.Fatalf("trial %d: rotation is not a planar embedding", trial)
		}
	}
}

func TestFanChainValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, delta := range []int{3, 4, 8, 16} {
		inst := FanChain(rng, 60, delta)
		if !inst.G.IsConnected() {
			t.Fatalf("delta %d: disconnected", delta)
		}
		if got := inst.G.MaxDegree(); got != delta {
			t.Fatalf("delta %d: max degree %d", delta, got)
		}
		if !inst.Rot.IsPlanarEmbedding(inst.G) {
			t.Fatalf("delta %d: rotation is not a planar embedding", delta)
		}
	}
}

func TestSeriesParallelValid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		inst := SeriesParallel(rng, 4+rng.Intn(50))
		if !sp.IsSeriesParallel(inst.G) {
			t.Fatalf("trial %d: not SP", trial)
		}
		if err := inst.Build.NestedEars().Validate(inst.G); err != nil {
			t.Fatalf("trial %d: ears: %v", trial, err)
		}
	}
}

func TestTreewidth2Valid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		inst := Treewidth2(rng, n)
		if inst.G.N() != n || !inst.G.IsConnected() {
			t.Fatalf("trial %d: bad graph n=%d", trial, inst.G.N())
		}
		// Treewidth <= 2 iff planar and no K4 minor; verify via the
		// Lemma 8.2 oracle: every biconnected component is SP.
		if !biconnectedAllSP(t, inst) {
			t.Fatalf("trial %d: a biconnected component is not SP", trial)
		}
	}
}

func biconnectedAllSP(t *testing.T, inst *Treewidth2Instance) bool {
	t.Helper()
	dec := graph.Biconnected(inst.G)
	for ci, verts := range dec.Vertices {
		if len(verts) < 3 {
			continue
		}
		idx := make(map[int]int, len(verts))
		for i, v := range verts {
			idx[v] = i
		}
		sub := graph.New(len(verts))
		for _, e := range dec.Components[ci] {
			sub.MustAddEdge(idx[e.U], idx[e.V])
		}
		if !sp.IsSeriesParallel(sub) {
			return false
		}
	}
	return true
}

func TestNoInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	k5 := K5Subdivision(rng, 60)
	if planar.IsPlanar(k5) {
		t.Fatal("K5 subdivision planar")
	}
	k33 := K33Subdivision(rng, 60)
	if planar.IsPlanar(k33) {
		t.Fatal("K3,3 subdivision planar")
	}
	k4 := K4Subdivision(rng, 60)
	if !planar.IsPlanar(k4) {
		t.Fatal("K4 subdivision should be planar")
	}
	if sp.IsSeriesParallel(k4) {
		t.Fatal("K4 subdivision should not be SP")
	}
	if planar.IsOuterplanar(k4) {
		t.Fatal("K4 subdivision should not be outerplanar")
	}

	inst := PathOuterplanar(rng, 40, 0.5)
	bad := WithEmbeddedK4(rng, inst)
	if planar.IsOuterplanar(bad) {
		t.Fatal("embedded K4 instance is still outerplanar")
	}

	crossed, ok := WithCrossingChord(rng, inst)
	if ok && planar.ProperlyNested(crossed, inst.Pos) {
		t.Fatal("crossing chord still properly nested")
	}

	tri := Triangulation(rng, 30)
	twisted, err := TwistRotation(rng, tri)
	if err != nil {
		t.Fatal(err)
	}
	if twisted.IsPlanarEmbedding(tri.G) {
		t.Fatal("twisted rotation still valid")
	}
}

// TestFamilySpecBuild pins the name-dispatched builder: every advertised
// family builds, matches the typed generator under the same seed, and
// bad specs error instead of panicking.
func TestFamilySpecBuild(t *testing.T) {
	for _, fam := range Families() {
		g, err := FamilySpec{Family: fam, N: 24, ChordProb: -1}.Build(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if g.N() < 2 || g.M() == 0 {
			t.Fatalf("%s: degenerate graph n=%d m=%d", fam, g.N(), g.M())
		}
	}
	// Same seed, same family knobs => same graph as the typed generator.
	want := PathOuterplanar(rand.New(rand.NewSource(9)), 32, 0.5).G
	got, err := FamilySpec{Family: "pathouter", N: 32, ChordProb: -1}.Build(rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("spec build diverged from typed generator: n=%d/%d m=%d/%d",
			got.N(), want.N(), got.M(), want.M())
	}
	for _, e := range want.Edges() {
		if !got.HasEdge(e.U, e.V) {
			t.Fatalf("spec build missing edge %v", e)
		}
	}
	if _, err := (FamilySpec{Family: "nope", N: 8}).Build(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := (FamilySpec{Family: "k5sub", N: 3}).Build(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("undersized k5sub accepted")
	}
	if _, err := (FamilySpec{Family: "fanchain", N: 8, Delta: 2}).Build(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("fanchain delta=2 accepted")
	}
}

// TestBuildWitnessedDeterministic: one spec and one seed build the same
// instance every time — edge order, ports, path witness and rotation.
// The certification service relies on it to answer a repeated gen spec
// from the instance it built the first time, without the generator.
func TestBuildWitnessedDeterministic(t *testing.T) {
	for _, fam := range Families() {
		for _, n := range []int{24, 257} {
			for seed := int64(1); seed <= 5; seed++ {
				spec := FamilySpec{Family: fam, N: n, ChordProb: -1}
				g1, pos1, rot1, err1 := spec.BuildWitnessed(rand.New(rand.NewSource(seed)))
				g2, pos2, rot2, err2 := spec.BuildWitnessed(rand.New(rand.NewSource(seed)))
				if err1 != nil || err2 != nil {
					t.Fatalf("%s n=%d seed %d: %v, %v", fam, n, seed, err1, err2)
				}
				if !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
					t.Fatalf("%s n=%d seed %d: edge order differs", fam, n, seed)
				}
				for v := 0; v < g1.N(); v++ {
					if !reflect.DeepEqual(g1.Neighbors(v), g2.Neighbors(v)) || !reflect.DeepEqual(g1.PortEdgeIDs(v), g2.PortEdgeIDs(v)) {
						t.Fatalf("%s n=%d seed %d: ports of %d differ", fam, n, seed, v)
					}
				}
				if !reflect.DeepEqual(pos1, pos2) || !reflect.DeepEqual(rot1, rot2) {
					t.Fatalf("%s n=%d seed %d: witness differs", fam, n, seed)
				}
			}
		}
	}
}
