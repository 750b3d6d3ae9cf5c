package planardip

// One benchmark per experiment of EXPERIMENTS.md (E1–E11). Each bench
// reports the measured proof size via b.ReportMetric so `go test -bench`
// regenerates the evaluation's numbers; cmd/dipbench prints the full
// sweep tables.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/protocol"
)

const benchN = 4096

func reportSize(b *testing.B, bits int, rounds int) {
	b.ReportMetric(float64(bits), "proof-bits")
	b.ReportMetric(float64(rounds), "rounds")
}

// benchSweep is one point of a registered protocol's size sweep, as
// dipbench runs it: every iteration certifies a fresh instance of the
// descriptor's generator family at size benchN, and the last run's
// proof size is reported.
func benchSweep(b *testing.B, name string, seed int64) {
	d, ok := protocol.Get(name)
	if !ok {
		b.Fatalf("protocol %q is not registered", name)
	}
	rng := rand.New(rand.NewSource(seed))
	var last *protocol.Outcome
	for i := 0; i < b.N; i++ {
		spec := gen.FamilySpec{Family: d.Family, N: benchN, ChordProb: -1}
		g, pos, rot, err := spec.BuildWitnessed(rng)
		if err != nil {
			b.Fatal(err)
		}
		out, err := d.Run(context.Background(), &protocol.Instance{G: g, PathPos: pos, Rotation: rot}, rng.Int63())
		if err != nil {
			b.Fatal(err)
		}
		if !out.Accepted {
			b.Fatal("rejected")
		}
		last = out
	}
	reportSize(b, last.ProofSizeBits, last.Rounds)
}

func BenchmarkE1PathOuterplanarity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var last exp.SizeRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E1PathOuterplanarity(rng, benchN)
		if err != nil {
			b.Fatal(err)
		}
		if !row.Accepted {
			b.Fatal("rejected")
		}
		last = row
	}
	reportSize(b, last.Bits, last.Rounds)
	b.ReportMetric(float64(last.BaselineBits), "pls-bits")
}

func BenchmarkE2Outerplanarity(b *testing.B) { benchSweep(b, "outerplanar", 2) }

func BenchmarkE3Embedding(b *testing.B) { benchSweep(b, "embedding", 3) }

func BenchmarkE4Planarity(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var last exp.DeltaRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E4Planarity(rng, 2048, 32)
		if err != nil {
			b.Fatal(err)
		}
		if !row.Accepted {
			b.Fatal("rejected")
		}
		last = row
	}
	reportSize(b, last.Bits, 5)
	b.ReportMetric(float64(last.RotationBits), "rotation-bits")
}

func BenchmarkE5SeriesParallel(b *testing.B) { benchSweep(b, "sp", 5) }

func BenchmarkE6Treewidth2(b *testing.B) { benchSweep(b, "treewidth2", 6) }

func BenchmarkE7LowerBound(b *testing.B) {
	var last exp.ThresholdRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E7LowerBound(256)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(float64(last.Threshold), "threshold-bits")
	b.ReportMetric(float64(last.Log2N), "log2n")
}

func BenchmarkE8LRSort(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	var last exp.SizeRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E8LRSort(rng, benchN)
		if err != nil {
			b.Fatal(err)
		}
		if !row.Accepted {
			b.Fatal("rejected")
		}
		last = row
	}
	reportSize(b, last.Bits, last.Rounds)
}

func BenchmarkE9SpanTree(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var last exp.SoundnessRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E9SpanTree(rng, 8, 50)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(last.Rate, "accept-rate")
	b.ReportMetric(last.Bound, "bound")
}

func BenchmarkE10Multiset(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	var last exp.SoundnessRow
	for i := 0; i < b.N; i++ {
		row, err := exp.E10Multiset(rng, 16, 50)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(last.Rate, "accept-rate")
	b.ReportMetric(last.Bound, "bound")
}

func BenchmarkE11Separation(b *testing.B) {
	// The headline: DIP vs PLS proof size on the same instances; the
	// interesting number is the ratio of *growth* across a 256x size jump.
	rng := rand.New(rand.NewSource(11))
	var small, big exp.SizeRow
	for i := 0; i < b.N; i++ {
		var err error
		small, err = exp.E1PathOuterplanarity(rng, 256)
		if err != nil {
			b.Fatal(err)
		}
		big, err = exp.E1PathOuterplanarity(rng, 65536)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(big.Bits-small.Bits), "dip-growth-bits")
	b.ReportMetric(float64(big.BaselineBits-small.BaselineBits), "pls-growth-bits")
}

func BenchmarkAblationSoundnessExponent(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	var last exp.AblationRow
	for i := 0; i < b.N; i++ {
		row, err := exp.AblationExponent(rng, 4096, 2, 20)
		if err != nil {
			b.Fatal(err)
		}
		last = row
	}
	b.ReportMetric(float64(last.ProofBits), "proof-bits")
	b.ReportMetric(last.Rate, "liar-accept-rate")
}
