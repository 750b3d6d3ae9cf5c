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

// TestViewLocality is the cross-engine matrix. Every registered
// protocol runs on its yes- and no-family at n ∈ {24, 64}, with no
// adversary and under each chaos strategy: 7 × 2 × 2 × 9 = 252 cells.
// Each cell runs once on a Runner and once on the channel engine, the
// literal model that is Runner's oracle, with a dip.ReadLog and a trace
// collector attached to each run. In every cell:
//
//   - the two runs' trace fingerprints are identical: same labels,
//     proof sizes, coins and verdicts, round by round;
//   - every engine-level span, nested ones included, carries the tag of
//     the engine the cell asked for, so the channel half really ran on
//     the channel engine;
//   - an honest run on the yes-family accepts;
//   - each log finds no read outside what the model allows — Coins reads
//     only delivered rounds, Decide only the node's own data and its own
//     ports — and every row decoded exactly once per run before it is
//     read.
func TestViewLocality(t *testing.T) {
	const seed = 7
	engines := []struct {
		tag  string
		opts []dip.RunOption
	}{
		{obs.EngineRunner, nil},
		{obs.EngineChannels, []dip.RunOption{dip.WithChannelEngine()}},
	}
	var cells, raw, rows, rowRuns int
	for _, d := range protocol.All() {
		t.Run(d.Name, func(t *testing.T) {
			for _, n := range []int{24, 64} {
				for _, family := range []string{d.Family, d.NoFamily} {
					spec := gen.FamilySpec{Family: family, N: n, ChordProb: -1}
					g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatalf("building %s at n=%d: %v", family, n, err)
					}
					inst := &protocol.Instance{G: g, PathPos: pos, Rotation: rot}
					for _, strategy := range append([]string{"-"}, chaos.Names()...) {
						cell := func(format string, args ...any) {
							t.Helper()
							t.Errorf("%s n=%d %s: "+format, append([]any{family, n, strategy}, args...)...)
						}
						var prints [2]string
						for e, engine := range engines {
							log, collect := dip.NewReadLog(), obs.NewCollect()
							opts := append([]dip.RunOption{dip.WithReadLog(log), dip.WithTracer(collect)}, engine.opts...)
							if strategy != "-" {
								adv, err := chaos.New(strategy, seed)
								if err != nil {
									t.Fatal(err)
								}
								opts = append(opts, dip.WithAdversary(adv))
							}
							out, err := d.Run(context.Background(), inst, seed, opts...)
							if err != nil {
								t.Fatalf("%s n=%d %s on %s: %v", family, n, strategy, engine.tag, err)
							}
							if strategy == "-" && family == d.Family && !out.Accepted {
								cell("honest run rejected on %s", engine.tag)
							}
							if err := log.Err(); err != nil {
								cell("%s: %v", engine.tag, err)
							}
							if bad := foreignSpans(collect.Runs(), engine.tag); bad > 0 {
								cell("%d spans did not run on %s", bad, engine.tag)
							}
							r, w, k := log.Counts()
							raw, rows, rowRuns = raw+r, rows+w, rowRuns+k
							prints[e] = collect.Fingerprint()
						}
						if prints[0] == "" || prints[0] != prints[1] {
							cell("engines diverge:\nrunner:   %s\nchannels: %s", prints[0], prints[1])
						}
						cells++
					}
				}
			}
		})
	}
	// Every cell ran, and the checks had something to check.
	if want := len(protocol.All()) * 2 * 2 * (1 + len(chaos.Names())); cells != want || raw == 0 || rows == 0 || rowRuns == 0 {
		t.Fatalf("%d cells; the logs saw %d raw reads, %d row reads, %d runs with rows", cells, raw, rows, rowRuns)
	}
	t.Logf("%d cells: %d raw reads, %d row reads, %d runs with rows", cells, raw, rows, rowRuns)
}

// foreignSpans counts the engine-level spans under runs, nested ones
// included, that are not tagged engine.
func foreignSpans(runs []*obs.Metrics, engine string) int {
	bad := 0
	for _, m := range runs {
		if m.Engine != obs.EngineComposite && m.Engine != engine {
			bad++
		}
		bad += foreignSpans(m.Subs, engine)
	}
	return bad
}
