// Package planarity implements the planarity DIP of Theorem 1.5 (via
// Lemma 7.2): the prover computes a combinatorial planar embedding of the
// input graph, ships each node its rotation values ρ_v(e) inside
// O(log Δ)-bit edge labels (hosted by the accountable endpoint under the
// Lemma 2.4 forest decomposition), and then the planar-embedding protocol
// of Theorem 1.4 verifies the shipped embedding. Proof size:
// O(log log n + log Δ); 5 interaction rounds.
package planarity

import (
	"errors"
	"math/rand"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/embedding"
	"repro/internal/graph"
	"repro/internal/planar"
)

// Rounds is the declared interaction-round count of Theorem 1.5.
const Rounds = 5

// ProofSizeBound is the declared proof-size bound of Theorem 1.5 in
// bits: O(log log n + log Δ) — the embedding bound plus the rotation
// shipping term, at most degeneracy-many (<= 5 on planar graphs)
// accountable edges each carrying an ordered pair of log-Δ-wide
// rotation values. Applies to honest runs on yes-instances; asserted by
// the bound-conformance test in internal/protocol.
func ProofSizeBound(n, delta int) int {
	b := embedding.ProofSizeBound(n, delta)
	if b == 0 {
		return 0
	}
	return b + 2*5*bitio.BitsFor(delta)
}

// Prepared is the coin-free half of a planarity run: the embedding the
// prover ships, the embedding run prepared on it, and the shipping
// term. Runs only read it, so one Prepared serves concurrent runs.
type Prepared struct {
	g            *graph.Graph
	err          error               // n < 2: Run reports it
	emb          *embedding.Prepared // nil when the prover has no embedding
	rotationBits int
}

// Prepare resolves the prover's embedding of g — hint when non-nil,
// otherwise the DMP embedder's — and prepares the embedding run on it.
func Prepare(g *graph.Graph, hint *planar.Rotation) *Prepared {
	pr := &Prepared{g: g}
	if g.N() < 2 {
		pr.err = errors.New("planarity: need n >= 2")
		return pr
	}
	rot := hint
	if rot == nil {
		r, err := planar.Embed(g)
		if err != nil {
			return pr
		}
		rot = r
	}
	pr.emb = embedding.Prepare(g, rot)
	pr.rotationBits = shippingBits(g)
	return pr
}

// Run executes the planarity DIP. The prover uses hint as its embedding
// when non-nil (generators provide known rotations; adversaries provide
// crafted ones); otherwise it runs the DMP embedder, and fails — which
// the verifier treats as rejection — when the graph is not planar. The
// outcome's RotationBits reports the O(log Δ) shipping term separately
// (it is included in ProofSizeBits) so the Δ-sweep experiment can show
// the additive structure; rejections of the nested embedding stages
// surface under the embedding keys ("tree", "nesting", "corner").
func Run(g *graph.Graph, hint *planar.Rotation, rng *rand.Rand, opts ...dip.RunOption) (*dip.Outcome, error) {
	return Prepare(g, hint).Run(rng, opts...)
}

// Run executes one run of the prepared planarity DIP, as the
// package-level Run does.
func (pr *Prepared) Run(rng *rand.Rand, opts ...dip.RunOption) (res *dip.Outcome, err error) {
	g := pr.g
	cfg := dip.NewRunConfig(opts...)
	defer cfg.CompositeSpan("planarity", g.N(), Rounds, &res)()
	res = &dip.Outcome{Rounds: Rounds}
	if pr.err != nil {
		return nil, pr.err
	}
	if pr.emb == nil {
		res.ProverFailed = true
		return res, nil
	}
	emb, err := pr.emb.Run(rng, cfg.Child("embedding")...)
	if err != nil {
		return nil, err
	}
	res.Rejections = emb.Rejections
	res.ProverFailed = emb.ProverFailed
	res.Accepted = emb.Accepted && !emb.ProverFailed
	res.RotationBits = pr.rotationBits
	res.ProofSizeBits = emb.ProofSizeBits + res.RotationBits
	res.TotalLabelBits = emb.TotalLabelBits + res.RotationBits*g.N()
	return res, nil
}

// shippingBits is the per-node cost of delivering the rotation values:
// every edge carries the ordered pair (ρ_u(e), ρ_v(e)) in its label, and
// each node is accountable for at most degeneracy-many (<= 5 on planar
// graphs) incident edges.
func shippingBits(g *graph.Graph) int {
	width := bitio.BitsFor(g.MaxDegree())
	out, _ := graph.OrientByDegeneracy(g)
	max := 0
	for v := range out {
		bits := len(out[v]) * 2 * width
		if bits > max {
			max = bits
		}
	}
	return max
}
