package pathouter

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/graph"
)

func yesInstance(rng *rand.Rand, n int, density float64) *Instance {
	gi := gen.PathOuterplanar(rng, n, density)
	return &Instance{G: gi.G, Pos: gi.Pos}
}

func TestCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(100)
		inst := yesInstance(rng, n, 0.5)
		p, err := NewParams(n)
		if err != nil {
			t.Fatal(err)
		}
		di := dip.NewInstance(inst.G)
		proto := Protocol(inst, p)
		res, err := proto.Repeat(di, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepts != res.Runs {
			t.Fatalf("trial %d (n=%d): completeness %d/%d", trial, n, res.Accepts, res.Runs)
		}
		if res.Rounds != 5 {
			t.Fatalf("rounds = %d", res.Rounds)
		}
	}
}

func TestCompletenessBarePath(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	inst := yesInstance(rng, 20, 0)
	p, _ := NewParams(20)
	di := dip.NewInstance(inst.G)
	res, err := Protocol(inst, p).Repeat(di, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepts != res.Runs {
		t.Fatalf("bare path: %d/%d", res.Accepts, res.Runs)
	}
}

func TestCompletenessDensePathOuterplanar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := yesInstance(rng, 60, 0.95)
	p, _ := NewParams(60)
	di := dip.NewInstance(inst.G)
	res, err := Protocol(inst, p).Repeat(di, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepts != res.Runs {
		t.Fatalf("dense: %d/%d", res.Accepts, res.Runs)
	}
}

func TestFigure1Instance(t *testing.T) {
	// The exact Figure 1 graph: path a..f with chords (b,f), (c,e), (c,f).
	rng := rand.New(rand.NewSource(4))
	g := graph.New(6)
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, i+1)
	}
	g.MustAddEdge(1, 5)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(2, 5)
	inst := &Instance{G: g, Pos: []int{0, 1, 2, 3, 4, 5}}
	p, _ := NewParams(6)
	di := dip.NewInstance(g)
	res, err := Protocol(inst, p).Repeat(di, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepts != res.Runs {
		t.Fatalf("figure 1: %d/%d", res.Accepts, res.Runs)
	}
}

// crossingLiarProver runs the honest prover on a graph with one crossing
// chord, pretending the witness path is still valid: the best it can do
// is mislabel the longest-edge structure, which the name checks catch.
func TestSoundnessCrossingChord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected, total := 0, 0
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(60)
		gi := gen.PathOuterplanar(rng, n, 0.5)
		crossed, ok := gen.WithCrossingChord(rng, gi)
		if !ok {
			continue
		}
		total++
		inst := &Instance{G: crossed, Pos: gi.Pos}
		p, err := NewParams(n)
		if err != nil {
			t.Fatal(err)
		}
		di := dip.NewInstance(crossed)
		res, err := Protocol(inst, p).RunOnce(di, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			rejected++
		}
	}
	if total == 0 {
		t.Skip("no crossing instances generated")
	}
	if rejected < total-1 {
		t.Fatalf("crossing chord rejected only %d/%d", rejected, total)
	}
}

func TestSoundnessEmbeddedK4(t *testing.T) {
	// Non-outerplanar graph (K4 planted on consecutive path nodes): the
	// honest strategy commits the true structure and the verifier must
	// reject with high probability.
	rng := rand.New(rand.NewSource(6))
	rejected := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		n := 16 + rng.Intn(40)
		gi := gen.PathOuterplanar(rng, n, 0.3)
		bad := gen.WithEmbeddedK4(rng, gi)
		inst := &Instance{G: bad, Pos: gi.Pos}
		p, err := NewParams(n)
		if err != nil {
			t.Fatal(err)
		}
		di := dip.NewInstance(bad)
		res, err := Protocol(inst, p).RunOnce(di, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			rejected++
		}
	}
	if rejected < trials-1 {
		t.Fatalf("embedded K4 rejected only %d/%d", rejected, trials)
	}
}

// fakePathProver commits a path that is not spanning: it disconnects the
// real path in the middle and roots two pieces, testing that the
// spanning-tree stage catches structural lies.
type fakePathProver struct {
	inner *Honest
	p     Params
	cut   int // path position where the committed path is broken
}

func (fp *fakePathProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	if round == 0 {
		// Rebuild the prover with a broken parent structure.
		h := fp.inner
		cutV := h.at[fp.cut]
		h.parent[cutV] = -1
		a, err := h.round1()
		if err != nil {
			return nil, err
		}
		return a, nil
	}
	return fp.inner.Round(round, coins)
}

func TestSoundnessBrokenPathCommitment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 40
	inst := yesInstance(rng, n, 0.4)
	p, err := NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	di := dip.NewInstance(inst.G)
	proto := AdversarialProtocol(p, func() dip.Prover {
		h, err := NewHonest(p, inst)
		if err != nil {
			panic(err)
		}
		return &fakePathProver{inner: h, p: p, cut: n / 2}
	})
	res, err := proto.Repeat(di, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Soundness error of the amplified spanning-tree check is 2^-L.
	if res.Accepts > 1 {
		t.Fatalf("broken path accepted %d/%d", res.Accepts, res.Runs)
	}
}

func TestProofSizeDoublyLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var sizes []int
	ns := []int{64, 4096, 65536}
	for _, n := range ns {
		inst := yesInstance(rng, n, 0.5)
		p, err := NewParams(n)
		if err != nil {
			t.Fatal(err)
		}
		di := dip.NewInstance(inst.G)
		res, err := Protocol(inst, p).RunOnce(di, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("n=%d rejected", n)
		}
		sizes = append(sizes, res.Stats.MaxLabelBits)
	}
	if sizes[2] >= 2*sizes[0] {
		t.Fatalf("proof size growth too fast: %v for n=%v", sizes, ns)
	}
}

func TestChannelEngineAgreesOnRealProtocol(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inst := yesInstance(rng, 40, 0.5)
	p, err := NewParams(40)
	if err != nil {
		t.Fatal(err)
	}
	di := dip.NewInstance(inst.G)
	proto := Protocol(inst, p)
	a, err := proto.RunOnce(di, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := proto.RunOnce(di, rand.New(rand.NewSource(99)), dip.WithChannelEngine())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Accepted || !b.Accepted {
		t.Fatalf("engines rejected: orchestrated=%v channels=%v", a.Accepted, b.Accepted)
	}
	if a.Stats.MaxLabelBits != b.Stats.MaxLabelBits {
		t.Fatalf("proof sizes differ: %d vs %d", a.Stats.MaxLabelBits, b.Stats.MaxLabelBits)
	}
}
