package exp

import (
	"math/rand"
	"testing"

	"repro/internal/dip"
)

func TestSizeExperimentsAcceptSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tests := []struct {
		name string
		f    func(*rand.Rand, int, ...dip.RunOption) (SizeRow, error)
	}{
		{"E1", E1PathOuterplanarity},
		{"E8", E8LRSort},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			row, err := tt.f(rng, 128)
			if err != nil {
				t.Fatal(err)
			}
			if !row.Accepted {
				t.Fatalf("%s rejected at n=128", tt.name)
			}
			if row.Rounds != 5 {
				t.Fatalf("%s rounds = %d", tt.name, row.Rounds)
			}
			if row.Bits <= 0 {
				t.Fatalf("%s no proof size", tt.name)
			}
		})
	}
}

func TestE4DeltaMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	prev := 0
	for _, d := range []int{4, 16, 64} {
		row, err := E4Planarity(rng, 512, d)
		if err != nil {
			t.Fatal(err)
		}
		if !row.Accepted {
			t.Fatalf("delta=%d rejected", d)
		}
		if row.RotationBits <= prev {
			t.Fatalf("rotation bits not increasing: %d then %d", prev, row.RotationBits)
		}
		prev = row.RotationBits
	}
}

func TestE7ThresholdSane(t *testing.T) {
	row, err := E7LowerBound(32)
	if err != nil {
		t.Fatal(err)
	}
	if row.Threshold < 4 || row.Threshold > row.Log2N+1 {
		t.Fatalf("threshold %d vs log2n %d", row.Threshold, row.Log2N)
	}
}

func TestE9E10Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	row, err := E9SpanTree(rng, 4, 300)
	if err != nil {
		t.Fatal(err)
	}
	if row.Rate > 3*row.Bound+0.03 {
		t.Fatalf("E9 rate %.4f above bound %.4f", row.Rate, row.Bound)
	}
	mrow, err := E10Multiset(rng, 16, 300)
	if err != nil {
		t.Fatal(err)
	}
	if mrow.Rate > 3*mrow.Bound+0.03 {
		t.Fatalf("E10 rate %.4f above bound %.4f", mrow.Rate, mrow.Bound)
	}
}

func TestAblationTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r1, err := AblationExponent(rng, 4096, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := AblationExponent(rng, 4096, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	if r4.ProofBits <= r1.ProofBits {
		t.Fatalf("higher exponent should cost bits: c=1 %d, c=4 %d", r1.ProofBits, r4.ProofBits)
	}
	if r4.Bound >= r1.Bound {
		t.Fatalf("higher exponent should tighten the bound: %.6f vs %.6f", r1.Bound, r4.Bound)
	}
}

func TestSoundnessSuiteAllRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows, err := SoundnessSuite(rng, 48, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Accepts != 0 {
			t.Fatalf("%s accepted %d times", r.Name, r.Accepts)
		}
	}
}
