package embedding

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func TestRunCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		inst := gen.Triangulation(rng, 6+rng.Intn(60))
		for rep := 0; rep < 3; rep++ {
			res, err := Run(inst.G, inst.Rot, rng)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatalf("trial %d rep %d: rejected (tree=%v nest=%v corner=%v)",
					trial, rep, res.Rejected("tree"), res.Rejected("nesting"), res.Rejected("corner"))
			}
			if res.Rounds != 5 {
				t.Fatalf("rounds = %d", res.Rounds)
			}
		}
	}
}

func TestRunCompletenessFanChain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, delta := range []int{3, 6, 12} {
		inst := gen.FanChain(rng, 60, delta)
		res, err := Run(inst.G, inst.Rot, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("delta=%d: rejected (tree=%v nest=%v corner=%v)",
				delta, res.Rejected("tree"), res.Rejected("nesting"), res.Rejected("corner"))
		}
	}
}

func TestRunRejectsTwists(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rejected, total := 0, 0
	for trial := 0; trial < 25; trial++ {
		inst := gen.Triangulation(rng, 8+rng.Intn(40))
		twisted, err := gen.TwistRotation(rng, inst)
		if err != nil {
			t.Fatal(err)
		}
		total++
		res, err := Run(inst.G, twisted, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			rejected++
		}
	}
	if rejected < total-1 {
		t.Fatalf("twisted rotations accepted in %d/%d runs", total-rejected, total)
	}
}

func TestRunProofSizeDoublyLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var sizes []int
	ns := []int{128, 4096, 32768}
	for _, n := range ns {
		inst := gen.Triangulation(rng, n)
		res, err := Run(inst.G, inst.Rot, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("n=%d rejected", n)
		}
		sizes = append(sizes, res.ProofSizeBits)
	}
	if sizes[2] >= 2*sizes[0] {
		t.Fatalf("proof size growth too fast: %v", sizes)
	}
}

// TestCopyMapLocality checks the simulation map of h(G,T,ρ) on the
// protocol's generator family: each copy is held, and only by its own
// node or a neighbor of it in g.
func TestCopyMapLocality(t *testing.T) {
	for _, n := range []int{24, 256} {
		g, _, rot, err := gen.FamilySpec{Family: "triangulation", N: n, ChordProb: -1}.BuildWitnessed(rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		pr := Prepare(g, rot)
		if pr.copies == nil {
			t.Fatalf("n=%d: no reduction", n)
		}
		if err := pr.copies.Local(g, pr.red.CopyOf); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}
