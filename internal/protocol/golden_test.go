package protocol

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/obs"
)

// goldenSeed seeds every golden run: the instance generator, the
// verifier coins and the adversary.
const goldenSeed = 7

// goldenSizes are the instance sizes the golden table pins.
var goldenSizes = []int{24, 64}

// goldenLine runs one golden case and renders it as a table row:
//
//	protocol family strategy n verdict proof_size_bits fingerprint
//
// strategy "-" is the honest prover with no adversary. The fingerprint
// is the FNV-64a digest of the run's CollectTracer fingerprint, the
// value the service stores in every certificate and dipcert -replay
// recomputes.
func goldenLine(t *testing.T, d *Descriptor, family, strategy string, n int) string {
	t.Helper()
	line, err := runLine(d, goldenInstance(t, d, family, n), family, strategy, n, goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// goldenInstance builds the golden instance of family at size n.
func goldenInstance(t *testing.T, d *Descriptor, family string, n int) *Instance {
	t.Helper()
	spec := gen.FamilySpec{Family: family, N: n, ChordProb: -1}
	g, pos, rot, err := spec.BuildWitnessed(rand.New(rand.NewSource(goldenSeed)))
	if err != nil {
		t.Fatalf("%s: building %s at n=%d: %v", d.Name, family, n, err)
	}
	return &Instance{G: g, PathPos: pos, Rotation: rot}
}

// runLine runs d on inst with the given strategy, seeding the verifier
// coins and the adversary with seed, and renders the run as a golden
// table row. A run error is part of the row; the error return is an
// unknown strategy.
func runLine(d *Descriptor, inst *Instance, family, strategy string, n int, seed int64) (string, error) {
	collect := obs.NewCollect()
	opts := []dip.RunOption{dip.WithTracer(collect)}
	if strategy != "-" {
		adv, err := chaos.New(strategy, seed)
		if err != nil {
			return "", err
		}
		opts = append(opts, dip.WithAdversary(adv))
	}
	verdict, bits := "error", 0
	if out, err := d.Run(context.Background(), inst, seed, opts...); err == nil {
		verdict, bits = "rejected", out.ProofSizeBits
		if out.Accepted {
			verdict = "accepted"
		}
	}
	h := fnv.New64a()
	io.WriteString(h, collect.Fingerprint())
	return fmt.Sprintf("%s %s %s %d %s %d %016x", d.Name, family, strategy, n, verdict, bits, h.Sum64()), nil
}

// goldenLines renders every golden case of d at each golden size: the
// honest prover on the yes-family, then every chaos strategy on the
// no-family and on the yes-family. The adversarial yes-runs reach
// stages a no-instance never does when its honest prover fails up
// front, as outerplanar's does on k4planted. A protocol whose prover
// takes a witness then gets one honest yes-run per size without it
// (family column "<family>/nowitness"): the prover derives its own
// rotation (planar.Embed) or path (PathOuterplanarOrder), the path every
// inline request without a witness takes.
func goldenLines(t *testing.T, d *Descriptor) []string {
	var lines []string
	for _, n := range goldenSizes {
		lines = append(lines, goldenLine(t, d, d.Family, "-", n))
		for _, family := range []string{d.NoFamily, d.Family} {
			for _, strategy := range chaos.Names() {
				lines = append(lines, goldenLine(t, d, family, strategy, n))
			}
		}
	}
	if d.Witness == WitnessNone {
		return lines
	}
	for _, n := range goldenSizes {
		inst := goldenInstance(t, d, d.Family, n)
		inst.PathPos, inst.Rotation = nil, nil
		line, err := runLine(d, inst, d.Family+"/nowitness", "-", n, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// TestGoldenFingerprints pins each registered protocol's verdict, proof
// size and trace-fingerprint digest on fixed runs against
// testdata/golden_fingerprints.txt. The other fingerprint tests compare
// one engine or one graph builder against another within a commit; this
// one compares against a table written once, so a change that moves a
// label, a sub-run name or a coin draw fails here even when both
// engines move together — the drift that makes dipcert -replay refuse
// older certificates. A change that alters a protocol on purpose
// replaces the affected rows with the lines this test reports.
func TestGoldenFingerprints(t *testing.T) {
	want := readGolden(t)
	for _, d := range All() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			got := goldenLines(t, d)
			rows := want[d.Name]
			if len(rows) != len(got) {
				t.Fatalf("table has %d rows for %s, the run produced %d:\n%s",
					len(rows), d.Name, len(got), strings.Join(got, "\n"))
			}
			for i := range got {
				if got[i] != rows[i] {
					t.Errorf("row %d drifted:\n want %s\n got  %s", i, rows[i], got[i])
				}
			}
		})
	}
}

// readGolden loads the golden table, grouped by protocol in file order.
// Lines starting with '#' are comments.
func readGolden(t *testing.T) map[string][]string {
	t.Helper()
	f, err := os.Open("testdata/golden_fingerprints.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		rows[name] = append(rows[name], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
