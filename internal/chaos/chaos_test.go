package chaos

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/pathouter"
)

func TestNewUnknownStrategy(t *testing.T) {
	if _, err := New("bogus", 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, name := range Names() {
		adv, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if adv.Name() != name {
			t.Fatalf("Name() = %q, want %q", adv.Name(), name)
		}
	}
}

func TestFlipBit(t *testing.T) {
	var w bitio.Writer
	w.WriteUint(0b1011, 4)
	s := w.String()
	f := flipBit(s, 1)
	if f.Len() != 4 {
		t.Fatalf("length changed: %d", f.Len())
	}
	for i := 0; i < 4; i++ {
		want := s.Bit(i)
		if i == 1 {
			want = !want
		}
		if f.Bit(i) != want {
			t.Fatalf("bit %d = %v, want %v", i, f.Bit(i), want)
		}
	}
}

// TestStrategiesDeterministicAcrossEngines is the tentpole invariant:
// the same (strategy, seed) adversary attached to the same seeded
// execution produces byte-identical trace fingerprints on the
// orchestrated and the channel engine, for every strategy.
func TestStrategiesDeterministicAcrossEngines(t *testing.T) {
	const n = 24
	gi := gen.PathOuterplanar(rand.New(rand.NewSource(7)), n, 0.5)
	p, err := pathouter.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	inst := &pathouter.Instance{G: gi.G, Pos: gi.Pos}
	proto := pathouter.Protocol(inst, p)
	for _, name := range Names() {
		var prints [2]string
		for ei, engine := range []string{obs.EngineRunner, obs.EngineChannels} {
			adv, err := New(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			c := obs.NewCollect()
			opts := []dip.RunOption{dip.WithTracer(c), dip.WithAdversary(adv)}
			if engine == obs.EngineChannels {
				opts = append(opts, dip.WithChannelEngine())
			}
			_, err = proto.RunOnce(dip.NewInstance(gi.G), rand.New(rand.NewSource(99)), opts...)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, engine, err)
			}
			prints[ei] = c.Fingerprint()
		}
		if prints[0] != prints[1] {
			t.Errorf("%s: fingerprints differ across engines:\nrunner:\n%s\nchannels:\n%s",
				name, prints[0], prints[1])
		}
	}
}

// TestInjectedBitsAreMetered pins the metering contract: an adversary
// that inflates a label is charged by the same proof-size accounting
// as the honest prover, so corrupted runs report larger (or equal)
// label bits, never silently-unmetered mutations.
func TestInjectedBitsAreMetered(t *testing.T) {
	const n = 24
	gi := gen.PathOuterplanar(rand.New(rand.NewSource(3)), n, 0.5)
	p, err := pathouter.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	inst := &pathouter.Instance{G: gi.G, Pos: gi.Pos}
	proto := pathouter.Protocol(inst, p)

	honest, err := proto.RunOnce(dip.NewInstance(gi.G), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	adv := &padder{core: newCore("padder", 1)}
	padded, err := proto.RunOnce(dip.NewInstance(gi.G), rand.New(rand.NewSource(5)), dip.WithAdversary(adv))
	if err != nil {
		t.Fatal(err)
	}
	if padded.Stats.MaxLabelBits <= honest.Stats.MaxLabelBits {
		t.Fatalf("padded run not metered: padded max=%d honest max=%d",
			padded.Stats.MaxLabelBits, honest.Stats.MaxLabelBits)
	}
	if padded.Stats.TotalLabelBits <= honest.Stats.TotalLabelBits {
		t.Fatalf("padded run not metered: padded total=%d honest total=%d",
			padded.Stats.TotalLabelBits, honest.Stats.TotalLabelBits)
	}
}

// padder appends 64 bits to node 0's label each round: a strategy
// whose injected bits are visible in the proof-size accounting.
type padder struct{ core }

func (s *padder) Corrupt(round int, a *dip.Assignment, prev []*dip.Assignment) (*dip.Assignment, int) {
	var w bitio.Writer
	for i := 0; i < a.Node[0].Len(); i++ {
		w.WriteBit(a.Node[0].Bit(i))
	}
	w.WriteUint(0xdeadbeef, 64)
	a.Node[0] = w.String()
	return a, 1
}

// TestAdversaryActsTraced asserts the observability contract: an
// attached adversary emits one AdversaryAct per prover round plus one
// for the decision phase, and the collector aggregates strategy name
// and mutation counts into the metrics snapshot.
func TestAdversaryActsTraced(t *testing.T) {
	const n = 16
	gi := gen.PathOuterplanar(rand.New(rand.NewSource(11)), n, 0.5)
	p, err := pathouter.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	inst := &pathouter.Instance{G: gi.G, Pos: gi.Pos}
	proto := pathouter.Protocol(inst, p)
	adv, err := New(BitFlip, 9)
	if err != nil {
		t.Fatal(err)
	}
	c := obs.NewCollect()
	if _, err := proto.RunOnce(dip.NewInstance(gi.G), rand.New(rand.NewSource(2)),
		dip.WithTracer(c), dip.WithAdversary(adv)); err != nil {
		t.Fatal(err)
	}
	runs := c.Runs()
	if len(runs) != 1 {
		t.Fatalf("want 1 run, got %d", len(runs))
	}
	m := runs[0]
	if m.Adversary != BitFlip {
		t.Fatalf("adversary tag %q, want %q", m.Adversary, BitFlip)
	}
	wantActs := proto.ProverRounds + 1 // one per prover round + decision phase
	if m.AdversaryActs != wantActs {
		t.Fatalf("acts = %d, want %d", m.AdversaryActs, wantActs)
	}
	if m.AdversaryMutations == 0 {
		t.Fatal("bitflip reported zero mutations")
	}
}
