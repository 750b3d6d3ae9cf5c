// Command diptrace runs one of the registered DIPs on a generated
// instance and pretty-prints its execution. For pathouter it shows the
// full interaction transcript: every prover label (decoded field by
// field) and every public coin, round by round — a microscope for the
// protocol's anatomy. Every other protocol gets a registry-driven
// summary: descriptor metadata, verdict, proof size versus the declared
// theorem bound, and the per-span round histograms.
//
//	diptrace -n 12 -seed 3
//	diptrace -protocol planarity -n 64 -seed 3
//
// With -json the output is emitted as NDJSON instead — for pathouter
// one object per node per round plus a meta header and a decision
// footer — for machine consumption (jq, pandas, diffing two seeds).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/lrsort"
	"repro/internal/obs"
	"repro/internal/pathouter"
	"repro/internal/protocol"
)

func main() {
	proto := flag.String("protocol", "pathouter",
		"protocol to trace; one of: "+protocol.NameList())
	n := flag.Int("n", 12, "instance size")
	seed := flag.Int64("seed", 3, "seed for instance and coins")
	jsonOut := flag.Bool("json", false, "emit the decoded transcript as NDJSON")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: diptrace [flags]\n\nregistered protocols: %s\n\n", protocol.NameList())
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(*proto, *n, *seed, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "diptrace:", err)
		os.Exit(1)
	}
}

func run(proto string, n int, seed int64, jsonOut bool) error {
	if proto == "pathouter" {
		return runPathOuterDeep(n, seed, jsonOut)
	}
	d, ok := protocol.Get(proto)
	if !ok {
		return fmt.Errorf("unknown protocol %q (have %s)", proto, protocol.NameList())
	}
	return runSummary(d, n, seed, jsonOut)
}

// runSummary executes any registered protocol through the registry and
// reports the descriptor metadata, the outcome against the declared
// bound, and the traced per-span round histograms.
func runSummary(d *protocol.Descriptor, n int, seed int64, jsonOut bool) error {
	spec := gen.FamilySpec{Family: d.Family, N: n, ChordProb: -1}
	g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	inst := &protocol.Instance{G: g, PathPos: pos, Rotation: rot}
	bound := d.ProofSizeBound(g.N(), g.MaxDegree())
	collect := obs.NewCollect()
	out, err := d.Run(context.Background(), inst, seed, dip.WithTracer(collect))
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(map[string]any{
			"type": "meta", "protocol": d.Name, "theorem": d.Theorem,
			"family": d.Family, "n": g.N(), "m": g.M(), "seed": seed,
			"declared_rounds": d.Rounds, "bound": d.BoundExpr, "bound_bits": bound,
		}); err != nil {
			return err
		}
		for _, m := range collect.Runs() {
			if err := emitSpanJSON(enc, m); err != nil {
				return err
			}
		}
		return enc.Encode(map[string]any{
			"type": "decision", "accepted": out.Accepted, "prover_failed": out.ProverFailed,
			"rounds": out.Rounds, "proof_bits": out.ProofSizeBits, "bound_bits": bound,
		})
	}
	fmt.Printf("%s DIP (%s, %s) on family %s: n=%d m=%d, seed %d\n",
		d.Name, d.Theorem, d.BoundExpr, d.Family, g.N(), g.M(), seed)
	for _, m := range collect.Runs() {
		printSpanText(m, 0)
	}
	fmt.Printf("decision: accepted=%v prover_failed=%v rounds=%d proof size %d bits (declared bound %d bits)\n",
		out.Accepted, out.ProverFailed, out.Rounds, out.ProofSizeBits, bound)
	return nil
}

// emitSpanJSON streams one execution span and its children as NDJSON.
func emitSpanJSON(enc *json.Encoder, m *obs.Metrics) error {
	entry := map[string]any{
		"type": "span", "protocol": m.Protocol, "span": m.Span,
		"nodes": m.Nodes, "accepted": m.Accepted, "rounds": m.Rounds,
	}
	if m.MaxLabelBits > 0 {
		entry["max_label_bits"] = m.MaxLabelBits
	}
	if err := enc.Encode(entry); err != nil {
		return err
	}
	for _, s := range m.Subs {
		if err := emitSpanJSON(enc, s); err != nil {
			return err
		}
	}
	return nil
}

// printSpanText renders one execution span and its children indented.
func printSpanText(m *obs.Metrics, depth int) {
	fmt.Printf("%*s- span %q (%s): nodes=%d rounds=%d accepted=%v max_label_bits=%d\n",
		2*depth+2, "", m.Span, m.Protocol, m.Nodes, m.Rounds, m.Accepted, m.MaxLabelBits)
	for _, s := range m.Subs {
		printSpanText(s, depth+1)
	}
}

// runPathOuterDeep keeps the original field-by-field transcript view of
// the pathouter protocol, which this command exists to microscope.
func runPathOuterDeep(n int, seed int64, jsonOut bool) error {
	rng := rand.New(rand.NewSource(seed))
	gi := gen.PathOuterplanar(rng, n, 0.5)
	p, err := pathouter.NewParams(n)
	if err != nil {
		return err
	}
	inst := &pathouter.Instance{G: gi.G, Pos: gi.Pos}
	di := dip.NewInstance(gi.G)
	res, err := pathouter.Protocol(inst, p).RunOnce(di, rng)
	if err != nil {
		return err
	}
	if jsonOut {
		return emitJSON(n, seed, gi, p, res)
	}
	return emitText(n, seed, gi, p, res)
}

// emitJSON streams the decoded transcript as NDJSON rows.
func emitJSON(n int, seed int64, gi *gen.PathOuterplanarInstance, p pathouter.Params, res *dip.Result) error {
	enc := json.NewEncoder(os.Stdout)
	row := func(obj map[string]any) error { return enc.Encode(obj) }
	tr := res.Transcript

	if err := row(map[string]any{
		"type": "meta", "protocol": "path-outerplanarity",
		"n": gi.G.N(), "m": gi.G.M(), "seed": seed,
		"pos": gi.Pos,
		"params": map[string]any{
			"B": p.LR.B, "blocks": p.LR.NumBlocks,
			"p0": p.LR.F0.P, "p1": p.LR.F1.P, "L": p.L,
		},
	}); err != nil {
		return err
	}

	for v := 0; v < gi.G.N(); v++ {
		l, err := pathouter.DecodeRound1Node(tr.Assignments[0].Node[v], p)
		if err != nil {
			return err
		}
		if err := row(map[string]any{
			"type": "label", "round": 1, "phase": "prover", "node": v, "pos": gi.Pos[v],
			"bits": tr.Assignments[0].Node[v].Len(),
			"fc":   map[string]any{"c1": l.FC.C1, "c2": l.FC.C2, "parity": l.FC.Parity},
			"lr": map[string]any{
				"j": l.LR.J, "x1": l.LR.X1Bit, "x2": l.LR.X2Bit,
				"vb": l.LR.VB, "m0": l.LR.M0, "m1": l.LR.M1,
			},
		}); err != nil {
			return err
		}
	}
	if err := row(map[string]any{
		"type": "edge_labels", "round": 1, "phase": "prover",
		"count": tr.Assignments[0].LabelledEdges(),
	}); err != nil {
		return err
	}

	for v := 0; v < gi.G.N(); v++ {
		c, err := pathouter.DecodeCoinsV1(tr.Coins[0][v], p)
		if err != nil {
			return err
		}
		if err := row(map[string]any{
			"type": "coins", "round": 2, "phase": "verifier", "node": v,
			"bits": tr.Coins[0][v].Len(),
			"st":   map[string]any{"a": c.ST.A, "id": c.ST.ID},
			"lr":   map[string]any{"r": c.LR.R % p.LR.F0.P, "rp": c.LR.RP % p.LR.F0.P, "rb": c.LR.RB % p.LR.F0.P},
			"name": c.Name,
		}); err != nil {
			return err
		}
	}

	for v := 0; v < gi.G.N(); v++ {
		l, err := pathouter.DecodeRound2Node(tr.Assignments[1].Node[v], p)
		if err != nil {
			return err
		}
		above := map[string]any{"virtual": l.Above.Virtual}
		if !l.Above.Virtual {
			above["a"] = l.Above.A
			above["b"] = l.Above.B
		}
		if err := row(map[string]any{
			"type": "label", "round": 3, "phase": "prover", "node": v,
			"bits":   tr.Assignments[1].Node[v].Len(),
			"st":     map[string]any{"s": l.ST.S, "id": l.ST.ID},
			"chains": map[string]any{"x1": l.LR.ChainX1, "x2": l.LR.ChainX2, "pos": l.LR.PrefPos, "bcast": l.LR.BcastX1},
			"above":  above,
		}); err != nil {
			return err
		}
	}

	for v := 0; v < gi.G.N(); v++ {
		c, err := lrsort.DecodeCoinsV2(tr.Coins[1][v], p.LR)
		if err != nil {
			return err
		}
		if err := row(map[string]any{
			"type": "coins", "round": 4, "phase": "verifier", "node": v,
			"bits": tr.Coins[1][v].Len(),
			"z0":   c.Z0 % p.LR.F1.P, "z1": c.Z1 % p.LR.F1.P,
		}); err != nil {
			return err
		}
	}

	for v := 0; v < gi.G.N(); v++ {
		l, err := lrsort.DecodeRound3Node(tr.Assignments[2].Node[v], p.LR)
		if err != nil {
			return err
		}
		if err := row(map[string]any{
			"type": "label", "round": 5, "phase": "prover", "node": v,
			"bits": tr.Assignments[2].Node[v].Len(),
			"c0":   l.AggC0, "d0": l.AggD0, "c1": l.AggC1, "d1": l.AggD1,
		}); err != nil {
			return err
		}
	}

	verdicts := 0
	for _, ok := range res.NodeOutputs {
		if ok {
			verdicts++
		}
	}
	return row(map[string]any{
		"type": "decision", "accepts": verdicts, "n": gi.G.N(),
		"accepted": res.Accepted, "proof_bits": res.Stats.MaxLabelBits,
	})
}

func emitText(n int, seed int64, gi *gen.PathOuterplanarInstance, p pathouter.Params, res *dip.Result) error {
	fmt.Printf("path-outerplanarity DIP on n=%d (m=%d), seed %d\n", gi.G.N(), gi.G.M(), seed)
	fmt.Printf("witness path positions: %v\n", gi.Pos)
	fmt.Printf("parameters: B=%d blocks=%d p0=%d p1=%d L=%d\n\n",
		p.LR.B, p.LR.NumBlocks, p.LR.F0.P, p.LR.F1.P, p.L)

	tr := res.Transcript
	fmt.Println("--- round 1 (prover): structure commitment ---")
	for v := 0; v < gi.G.N(); v++ {
		l, err := pathouter.DecodeRound1Node(tr.Assignments[0].Node[v], p)
		if err != nil {
			return err
		}
		fmt.Printf("  node %2d (pos %2d): fc=(c1=%d,c2=%d,par=%d) j=%d x1=%v x2=%v vb=%d M0=%d M1=%d  [%d bits]\n",
			v, gi.Pos[v], l.FC.C1, l.FC.C2, l.FC.Parity,
			l.LR.J, b2i(l.LR.X1Bit), b2i(l.LR.X2Bit), l.LR.VB, l.LR.M0, l.LR.M1,
			tr.Assignments[0].Node[v].Len())
	}
	fmt.Printf("  + %d edge labels (orientation, class, longest marks)\n\n", tr.Assignments[0].LabelledEdges())

	fmt.Println("--- round 2 (verifier): public coins ---")
	for v := 0; v < gi.G.N(); v++ {
		c, err := pathouter.DecodeCoinsV1(tr.Coins[0][v], p)
		if err != nil {
			return err
		}
		fmt.Printf("  node %2d: st=(A=%x,ID=%x) lr=(r=%d,r'=%d,rb=%d) name=%x\n",
			v, c.ST.A, c.ST.ID, c.LR.R%p.LR.F0.P, c.LR.RP%p.LR.F0.P, c.LR.RB%p.LR.F0.P, c.Name)
	}
	fmt.Println()

	fmt.Println("--- round 3 (prover): sums, chains, names ---")
	for v := 0; v < gi.G.N(); v++ {
		l, err := pathouter.DecodeRound2Node(tr.Assignments[1].Node[v], p)
		if err != nil {
			return err
		}
		fmt.Printf("  node %2d: st=(S=%x,ID=%x) chains=(x1=%d,x2=%d,pos=%d) bcast=%d above=%s  [%d bits]\n",
			v, l.ST.S, l.ST.ID, l.LR.ChainX1, l.LR.ChainX2, l.LR.PrefPos, l.LR.BcastX1,
			nameStr(l.Above), tr.Assignments[1].Node[v].Len())
	}
	fmt.Println()

	fmt.Println("--- round 4 (verifier): multiset evaluation points ---")
	for v := 0; v < gi.G.N(); v++ {
		c, err := lrsort.DecodeCoinsV2(tr.Coins[1][v], p.LR)
		if err != nil {
			return err
		}
		fmt.Printf("  node %2d: z0=%d z1=%d\n", v, c.Z0%p.LR.F1.P, c.Z1%p.LR.F1.P)
	}
	fmt.Println()

	fmt.Println("--- round 5 (prover): verification-scheme aggregates ---")
	for v := 0; v < gi.G.N(); v++ {
		l, err := lrsort.DecodeRound3Node(tr.Assignments[2].Node[v], p.LR)
		if err != nil {
			return err
		}
		fmt.Printf("  node %2d: C0=%d D0=%d C1=%d D1=%d  [%d bits]\n",
			v, l.AggC0, l.AggD0, l.AggC1, l.AggD1, tr.Assignments[2].Node[v].Len())
	}
	fmt.Println()

	verdicts := 0
	for _, ok := range res.NodeOutputs {
		if ok {
			verdicts++
		}
	}
	fmt.Printf("decision: %d/%d nodes accept -> %v (proof size %d bits)\n",
		verdicts, gi.G.N(), res.Accepted, res.Stats.MaxLabelBits)
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func nameStr(nm pathouter.Name) string {
	if nm.Virtual {
		return "⊥"
	}
	return fmt.Sprintf("(%x,%x)", nm.A, nm.B)
}
