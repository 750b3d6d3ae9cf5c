package protocol

import (
	"context"
	"testing"

	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/obs"
)

// rebuildBoth reconstructs g's exact edge stream through both
// construction paths: the incremental map-backed API and the bulk CSR
// Builder. Same stream order means same edge ids and same port orders,
// which is the contract the fingerprint test below pins down.
func rebuildBoth(t *testing.T, g *graph.Graph) (mapG, builderG *graph.Graph) {
	t.Helper()
	mapG = graph.NewSized(g.N(), g.M())
	b := graph.NewBuilder(g.N())
	b.Grow(g.M())
	for _, e := range g.Edges() {
		mapG.MustAddEdge(e.U, e.V)
		b.AddEdge(e.U, e.V)
	}
	return mapG, b.MustFinish()
}

// TestBuilderMatchesMapFingerprints: for every registered protocol, an
// instance whose graph was built through the bulk Builder produces the
// same deterministic trace fingerprint as the identical instance built
// edge-by-edge through the map API, on both engines. This is the
// end-to-end form of the construction-equivalence guarantee: builder
// graphs are drop-in replacements all the way through the interaction,
// not just structurally equal.
func TestBuilderMatchesMapFingerprints(t *testing.T) {
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			ref := buildInstance(t, d, 64, 29)
			mapG, builderG := rebuildBoth(t, ref.G)
			for _, engine := range []string{obs.EngineRunner, obs.EngineChannels} {
				fingerprints := map[string]string{}
				for label, g := range map[string]*graph.Graph{"map": mapG, "builder": builderG} {
					inst := &Instance{G: g, PathPos: ref.PathPos, Rotation: ref.Rotation}
					collect := obs.NewCollect()
					out, err := d.Run(context.Background(), inst, 29,
						onEngine(engine, dip.WithTracer(collect))...)
					if err != nil {
						t.Fatalf("%s/%s: %v", engine, label, err)
					}
					if !out.Accepted {
						t.Fatalf("%s/%s: honest run rejected", engine, label)
					}
					fingerprints[label] = collect.Fingerprint()
				}
				if fingerprints["map"] != fingerprints["builder"] {
					t.Errorf("engine %s: construction paths diverge:\nmap:     %s\nbuilder: %s",
						engine, fingerprints["map"], fingerprints["builder"])
				}
			}
		})
	}
}
