// Package exp implements the experiments of EXPERIMENTS.md that are
// more than a registered protocol's size sweep (E1 with its PLS
// baseline, E4 and E7–E10, the ablation and the adversarial suite),
// shared by the root benchmarks and the cmd/dipbench table generator.
// The E2, E3, E5 and E6 sweeps run through internal/protocol.
package exp

import (
	"fmt"
	"math/rand"

	"repro/internal/dip"
	"repro/internal/embedding"
	"repro/internal/gen"
	"repro/internal/lowerbound"
	"repro/internal/lrsort"
	"repro/internal/multiset"
	"repro/internal/pathouter"
	"repro/internal/planar"
	"repro/internal/planarity"
	"repro/internal/pls"
	"repro/internal/spantree"
	"repro/internal/treewidth2"

	"repro/internal/graph"
)

// SizeRow is one point of a proof-size sweep.
type SizeRow struct {
	N            int
	Rounds       int
	Bits         int // DIP proof size (max label bits)
	BaselineBits int // Θ(log n) PLS baseline where applicable (0 = n/a)
	Accepted     bool
}

// E1PathOuterplanarity measures Theorem 1.2 at size n, with the PLS
// baseline of [FFM+21] measured on the same instance.
func E1PathOuterplanarity(rng *rand.Rand, n int, opts ...dip.RunOption) (SizeRow, error) {
	gi := gen.PathOuterplanar(rng, n, 0.5)
	p, err := pathouter.NewParams(n)
	if err != nil {
		return SizeRow{}, err
	}
	inst := &pathouter.Instance{G: gi.G, Pos: gi.Pos}
	di := dip.NewInstance(gi.G)
	res, err := pathouter.Protocol(inst, p).RunOnce(di, rng, opts...)
	if err != nil {
		return SizeRow{}, err
	}
	bp := pls.NewParams(n)
	bres, err := pls.Protocol(gi.G, gi.Pos, bp).RunOnce(dip.NewInstance(gi.G), rng, dip.NewRunConfig(opts...).Child("pls-baseline")...)
	if err != nil {
		return SizeRow{}, err
	}
	return SizeRow{
		N: n, Rounds: 5,
		Bits:         res.Stats.MaxLabelBits,
		BaselineBits: bres.Stats.MaxLabelBits,
		Accepted:     res.Accepted && bres.Accepted,
	}, nil
}

// DeltaRow is one point of the Theorem 1.5 Δ-sweep.
type DeltaRow struct {
	N            int
	Delta        int
	Bits         int
	RotationBits int // the additive O(log Δ) shipping term
	Accepted     bool
}

// E4Planarity measures Theorem 1.5 at fixed n and maximum degree delta.
func E4Planarity(rng *rand.Rand, n, delta int, opts ...dip.RunOption) (DeltaRow, error) {
	gi := gen.FanChain(rng, n, delta)
	res, err := planarity.Run(gi.G, gi.Rot, rng, opts...)
	if err != nil {
		return DeltaRow{}, err
	}
	return DeltaRow{
		N: gi.G.N(), Delta: delta,
		Bits:         res.ProofSizeBits,
		RotationBits: res.RotationBits,
		Accepted:     res.Accepted,
	}, nil
}

// ThresholdRow is one point of the Theorem 1.8 lower-bound sweep.
type ThresholdRow struct {
	PathLen   int
	N         int
	Threshold int // smallest label budget where the attack fails
	Log2N     int
}

// E7LowerBound measures the cut-and-paste threshold at path length l.
func E7LowerBound(l int) (ThresholdRow, error) {
	k, _, err := lowerbound.Threshold(l)
	if err != nil {
		return ThresholdRow{}, err
	}
	n := 6 + 10*l
	log2 := 0
	for 1<<uint(log2) < n {
		log2++
	}
	return ThresholdRow{PathLen: l, N: n, Threshold: k, Log2N: log2}, nil
}

// E8LRSort measures Lemma 4.1 at size n.
func E8LRSort(rng *rand.Rand, n int, opts ...dip.RunOption) (SizeRow, error) {
	inst := lrSortYes(rng, n, n/4)
	p, err := lrsort.NewParams(n)
	if err != nil {
		return SizeRow{}, err
	}
	di := lrsort.NewDIPInstance(inst)
	res, err := lrsort.Protocol(inst, p).RunOnce(di, rng, opts...)
	if err != nil {
		return SizeRow{}, err
	}
	return SizeRow{N: n, Rounds: 5, Bits: res.Stats.MaxLabelBits, Accepted: res.Accepted}, nil
}

func lrSortYes(rng *rand.Rand, n, extra int) *lrsort.Instance {
	perm := rng.Perm(n)
	pos := make([]int, n)
	for q, v := range perm {
		pos[v] = q
	}
	g := graph.New(n)
	for q := 0; q+1 < n; q++ {
		g.MustAddEdge(perm[q], perm[q+1])
	}
	inst := &lrsort.Instance{G: g, Pos: pos}
	for len(inst.Edges) < extra {
		q1 := rng.Intn(n - 2)
		q2 := q1 + 2 + rng.Intn(n-q1-2)
		if g.HasEdge(perm[q1], perm[q2]) {
			continue
		}
		g.MustAddEdge(perm[q1], perm[q2])
		inst.Edges = append(inst.Edges, lrsort.DirectedEdge{Tail: perm[q1], Head: perm[q2]})
	}
	return inst
}

// SoundnessRow reports a measured acceptance rate against a bound.
type SoundnessRow struct {
	Name      string
	Runs      int
	Accepts   int
	Rate      float64
	Bound     float64 // analytic bound (0 = unspecified)
	ProofBits int
}

// E9SpanTree measures Lemma 2.5's amplification: acceptance of a forged
// two-component forest as a function of the repetition parameter.
func E9SpanTree(rng *rand.Rand, reps, runs int) (SoundnessRow, error) {
	const n = 16
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	mid := n / 2
	var tEdges []graph.Edge
	for i := 0; i+1 < n; i++ {
		if i != mid {
			tEdges = append(tEdges, graph.Canon(i, i+1))
		}
	}
	p := spantree.Params{Reps: reps, IDBits: reps}
	di := spantree.NewInstance(g, tEdges)
	proto := spantree.Protocol(di, p)
	tr, err := proto.Repeat(di, runs, rng)
	if err != nil {
		return SoundnessRow{}, err
	}
	// The prover commits the two-component forest as given (both roots
	// marked), so every local check passes except the component-ID
	// comparison across the missing middle edge: acceptance requires an
	// ID collision, probability exactly 2^-reps.
	return SoundnessRow{
		Name:      fmt.Sprintf("spantree reps=%d", reps),
		Runs:      tr.Runs,
		Accepts:   tr.Accepts,
		Rate:      tr.AcceptRate(),
		Bound:     1.0 / float64(uint64(1)<<uint(reps)),
		ProofBits: tr.MaxLabelBits,
	}, nil
}

// E10Multiset measures Lemma 2.6: acceptance of unequal multisets as a
// function of the field size.
func E10Multiset(rng *rand.Rand, k int, runs int) (SoundnessRow, error) {
	gi := gen.Triangulation(rng, 16)
	tree, err := graph.BFSTree(gi.G, 0)
	if err != nil {
		return SoundnessRow{}, err
	}
	n := gi.G.N()
	s1 := make([][]uint64, n)
	s2 := make([][]uint64, n)
	s1[1] = []uint64{2, 4}
	s2[2] = []uint64{2, 5}
	inst, err := multiset.NewInstance(gi.G, tree, s1, s2)
	if err != nil {
		return SoundnessRow{}, err
	}
	p, err := multiset.NewParams(k, 2)
	if err != nil {
		return SoundnessRow{}, err
	}
	tr, err := multiset.Protocol(inst, p).Repeat(inst, runs, rng)
	if err != nil {
		return SoundnessRow{}, err
	}
	return SoundnessRow{
		Name:      fmt.Sprintf("multiset k=%d p=%d", k, p.F.P),
		Runs:      tr.Runs,
		Accepts:   tr.Accepts,
		Rate:      tr.AcceptRate(),
		Bound:     float64(k) / float64(p.F.P),
		ProofBits: tr.MaxLabelBits,
	}, nil
}

// AdversaryRow is one adversarial-prover measurement.
type AdversaryRow struct {
	Name    string
	Runs    int
	Accepts int
	Rate    float64
}

// SoundnessSuite runs the adversarial-prover suite at size n:
// honest-strategy provers on no-instances of each family.
func SoundnessSuite(rng *rand.Rand, n, runs int) ([]AdversaryRow, error) {
	var rows []AdversaryRow

	// Path-outerplanarity: planted K4.
	accepts := 0
	for i := 0; i < runs; i++ {
		gi := gen.PathOuterplanar(rng, n, 0.4)
		bad := gen.WithEmbeddedK4(rng, gi)
		p, err := pathouter.NewParams(n)
		if err != nil {
			return nil, err
		}
		inst := &pathouter.Instance{G: bad, Pos: gi.Pos}
		res, err := pathouter.Protocol(inst, p).RunOnce(dip.NewInstance(bad), rng)
		if err == nil && res.Accepted {
			accepts++
		}
	}
	rows = append(rows, AdversaryRow{"path-outer: planted K4", runs, accepts, float64(accepts) / float64(runs)})

	// Embedding: twisted rotations.
	accepts = 0
	for i := 0; i < runs; i++ {
		gi := gen.Triangulation(rng, n)
		twisted, err := gen.TwistRotation(rng, gi)
		if err != nil {
			continue
		}
		res, err := embedding.Run(gi.G, twisted, rng)
		if err == nil && res.Accepted {
			accepts++
		}
	}
	rows = append(rows, AdversaryRow{"embedding: twisted rotation", runs, accepts, float64(accepts) / float64(runs)})

	// Planarity: K5 subdivision with a random forged rotation.
	accepts = 0
	for i := 0; i < runs; i++ {
		k5 := gen.K5Subdivision(rng, n)
		res, err := planarity.Run(k5, randomRotation(rng, k5), rng)
		if err == nil && res.Accepted {
			accepts++
		}
	}
	rows = append(rows, AdversaryRow{"planarity: K5 subdivision", runs, accepts, float64(accepts) / float64(runs)})

	// Treewidth 2: K4 block.
	accepts = 0
	for i := 0; i < runs; i++ {
		k4 := gen.K4Subdivision(rng, n)
		res, err := treewidth2.Run(k4, nil, rng)
		if err == nil && res.Accepted {
			accepts++
		}
	}
	rows = append(rows, AdversaryRow{"treewidth2: K4 subdivision", runs, accepts, float64(accepts) / float64(runs)})

	return rows, nil
}

// randomRotation shuffles each adjacency list: the strongest naive
// forged-embedding strategy for a non-planar instance.
func randomRotation(rng *rand.Rand, g *graph.Graph) *planar.Rotation {
	rot := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		rot[v] = append([]int(nil), g.Neighbors(v)...)
		rng.Shuffle(len(rot[v]), func(i, j int) { rot[v][i], rot[v][j] = rot[v][j], rot[v][i] })
	}
	r, err := planar.NewRotation(g, rot)
	if err != nil {
		panic(err)
	}
	return r
}

// AblationRow is one point of the soundness-exponent ablation: the
// paper's constant c trades label bits against the 1/polylog n soundness
// error. Both sides are measured with the inner-block-lie adversary.
type AblationRow struct {
	C         int
	FieldP0   uint64
	ProofBits int
	Runs      int
	Accepts   int
	Rate      float64
	Bound     float64 // ~1/p0 per lying edge
}

// AblationExponent measures LR-sorting at size n with soundness exponent
// c: honest label size plus the adversary's acceptance rate.
func AblationExponent(rng *rand.Rand, n, c, runs int) (AblationRow, error) {
	p, err := lrsort.NewParamsWithExponent(n, c)
	if err != nil {
		return AblationRow{}, err
	}
	// Honest proof size on a yes-instance.
	yes := lrSortYes(rng, n, n/4)
	di := lrsort.NewDIPInstance(yes)
	hres, err := lrsort.Protocol(yes, p).RunOnce(di, rng)
	if err != nil {
		return AblationRow{}, err
	}
	if !hres.Accepted {
		return AblationRow{}, fmt.Errorf("ablation c=%d: honest run rejected", c)
	}
	// Adversarial acceptance on the crafted backward-edge instance.
	no := lrsort.BackwardEdgeInstance(p, rng.Perm(n))
	if no == nil {
		return AblationRow{}, fmt.Errorf("ablation: n=%d too small", n)
	}
	ndi := lrsort.NewDIPInstance(no)
	proto := &dip.Protocol{
		Name:           "lrsort-ablation",
		ProverRounds:   3,
		VerifierRounds: 2,
		NewProver:      func() dip.Prover { return lrsort.NewInnerBlockLiar(p, no) },
		Verifier:       lrsort.Verifier{P: p},
	}
	tr, err := proto.Repeat(ndi, runs, rng)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		C:         c,
		FieldP0:   p.F0.P,
		ProofBits: hres.Stats.MaxLabelBits,
		Runs:      tr.Runs,
		Accepts:   tr.Accepts,
		Rate:      tr.AcceptRate(),
		Bound:     1.0 / float64(p.F0.P),
	}, nil
}
