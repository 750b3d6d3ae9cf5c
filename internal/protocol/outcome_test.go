package protocol

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/obs"
)

// TestOutcomeMapping: every registered descriptor returns the unified
// dip.Outcome with the shared fields faithfully populated — an
// accepting honest run has no rejections on record, a positive proof
// size, the declared round count, and a NoFamily the generator can
// build. This is the one table that guards the Result-API collapse:
// a protocol that forgets to map a field fails here by name.
func TestOutcomeMapping(t *testing.T) {
	families := map[string]bool{}
	for _, f := range gen.Families() {
		families[f] = true
	}
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			if d.NoFamily == "" {
				t.Fatal("descriptor has no matched no-instance family")
			}
			if !families[d.NoFamily] {
				t.Fatalf("NoFamily %q is not a gen family", d.NoFamily)
			}
			inst := buildInstance(t, d, 64, 21)
			out, err := d.Run(context.Background(), inst, 21)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Accepted || out.ProverFailed {
				t.Fatalf("honest yes-run: accepted=%v prover_failed=%v", out.Accepted, out.ProverFailed)
			}
			if out.Rounds != d.Rounds {
				t.Errorf("rounds = %d, descriptor declares %d", out.Rounds, d.Rounds)
			}
			if out.ProofSizeBits <= 0 {
				t.Errorf("proof size = %d bits, want > 0", out.ProofSizeBits)
			}
			if out.TotalLabelBits < out.ProofSizeBits {
				t.Errorf("total label bits %d < proof size %d", out.TotalLabelBits, out.ProofSizeBits)
			}
			if len(out.Rejections) != 0 {
				t.Errorf("accepting run recorded rejections: %v", out.Rejections)
			}
			for stage, k := range out.Rejections {
				if !out.Rejected(stage) || out.RejectionCount(stage) != k {
					t.Errorf("rejection accessors disagree with map for stage %q", stage)
				}
			}
		})
	}
}

// TestOutcomeRejectionStages: on each protocol's matched no-instance
// family the outcome either marks the prover as failed (no witness
// exists) or names at least one rejecting stage — rejections are never
// a bare Accepted=false with an empty explanation.
func TestOutcomeRejectionStages(t *testing.T) {
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			spec := gen.FamilySpec{Family: d.NoFamily, N: 64, ChordProb: -1}
			g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(31)))
			if err != nil {
				t.Fatalf("building %s no-instance: %v", d.NoFamily, err)
			}
			inst := &Instance{G: g, PathPos: pos, Rotation: rot}
			out, err := d.Run(context.Background(), inst, 31)
			if err != nil {
				// Some no-families break witness preparation outright
				// (e.g. no path order exists); that is a legitimate
				// rejection path for the estimator, not for this test.
				t.Skipf("run errored before producing an outcome: %v", err)
			}
			if out.Accepted {
				t.Fatalf("no-instance accepted")
			}
			if !out.ProverFailed && len(out.Rejections) == 0 {
				t.Errorf("rejection carries neither prover failure nor a named stage")
			}
		})
	}
}

// TestCrossEngineFingerprintsWithAdversary: the cross-engine
// determinism guarantee survives fault injection — for every protocol
// and a label-corrupting adversary, both engines interpose at the same
// points and produce byte-identical fingerprints, including the
// adversary act lines.
func TestCrossEngineFingerprintsWithAdversary(t *testing.T) {
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			inst := buildInstance(t, d, 64, 13)
			fingerprints := map[string]string{}
			for _, engine := range []string{obs.EngineRunner, obs.EngineChannels} {
				adv, err := chaos.New(chaos.BitFlip, 17)
				if err != nil {
					t.Fatal(err)
				}
				collect := obs.NewCollect()
				if _, err := d.Run(context.Background(), inst, 13,
					onEngine(engine, dip.WithTracer(collect), dip.WithAdversary(adv))...); err != nil {
					t.Fatalf("engine %s: %v", engine, err)
				}
				fp := collect.Fingerprint()
				if fp == "" {
					t.Fatalf("engine %s: empty fingerprint", engine)
				}
				fingerprints[engine] = fp
			}
			if fingerprints[obs.EngineRunner] != fingerprints[obs.EngineChannels] {
				t.Errorf("adversarial engines diverge:\nrunner:   %s\nchannels: %s",
					fingerprints[obs.EngineRunner], fingerprints[obs.EngineChannels])
			}
		})
	}
}
