package dip_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestViewLocality runs every registered protocol, honest and under
// every chaos strategy, on its yes- and no-family at n = 24 on both
// engines with a dip.ReadLog attached, and requires the log to find no
// read outside what the model allows — Coins reads only delivered
// rounds, Decide only the node's own data and its own ports — and every
// row decoded exactly once per run before it is read.
func TestViewLocality(t *testing.T) {
	const n, seed = 24, 7
	var raw, rows, rowRuns int
	for _, d := range protocol.All() {
		for _, family := range []string{d.Family, d.NoFamily} {
			spec := gen.FamilySpec{Family: family, N: n, ChordProb: -1}
			g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("%s: building %s: %v", d.Name, family, err)
			}
			inst := &protocol.Instance{G: g, PathPos: pos, Rotation: rot}
			for _, strategy := range append([]string{"-"}, chaos.Names()...) {
				for _, engine := range []string{obs.EngineRunner, obs.EngineChannels} {
					log := dip.NewReadLog()
					opts := []dip.RunOption{dip.WithReadLog(log), dip.WithEngine(engine)}
					if strategy != "-" {
						adv, err := chaos.New(strategy, seed)
						if err != nil {
							t.Fatal(err)
						}
						opts = append(opts, dip.WithAdversary(adv))
					}
					if _, err := d.Run(context.Background(), inst, seed, opts...); err != nil {
						t.Fatalf("%s %s %s %s: %v", d.Name, family, strategy, engine, err)
					}
					if err := log.Err(); err != nil {
						t.Errorf("%s %s %s %s: %v", d.Name, family, strategy, engine, err)
					}
					r, w, k := log.Counts()
					raw, rows, rowRuns = raw+r, rows+w, rowRuns+k
				}
			}
		}
	}
	// The checks must have had something to check.
	if raw == 0 || rows == 0 || rowRuns == 0 {
		t.Fatalf("the logs saw %d raw reads, %d row reads, %d runs with rows", raw, rows, rowRuns)
	}
	t.Logf("%d raw reads, %d row reads, %d runs with rows", raw, rows, rowRuns)
}
