package dip

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bitio"
)

// labeledFixture returns an instance on a path graph plus a prover that
// labels every node each round, and the permissive verifier the frozen
// tests share.
func labeledFixture(n, proverRounds int) (*Instance, *fixedProver, echoVerifier) {
	g := pathGraph(n)
	assigns := make([]*Assignment, proverRounds)
	for pr := range assigns {
		a := NewAssignment(g)
		for v := 0; v < n; v++ {
			a.Node[v] = bitio.FromUint(uint64((v+pr)%256), 8)
		}
		assigns[pr] = a
	}
	v := echoVerifier{decide: func(view *View) bool { return view.Own(0).Len() > 0 }}
	return NewInstance(g), &fixedProver{assigns: assigns}, v
}

// TestFreezeOnceSharedAcrossRunners: every consumer of one Instance —
// Freeze, both engine constructors, repeated runs — shares a single
// dense freeze, observed through the package freeze counter.
func TestFreezeOnceSharedAcrossRunners(t *testing.T) {
	inst, prover, v := labeledFixture(32, 2)
	before := FreezeCount()

	f, err := Freeze(inst)
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 32 || f.M() != 31 {
		t.Fatalf("frozen reports n=%d m=%d, want 32/31", f.N(), f.M())
	}
	if f.Instance() != inst {
		t.Fatal("Frozen.Instance does not return the original instance")
	}
	if f2, _ := Freeze(inst); f2 != f {
		t.Fatal("second Freeze returned a different *Frozen")
	}

	runners := []interface {
		Run(Prover, Verifier, int, int, *rand.Rand, ...RunOption) (*Result, error)
	}{
		NewRunner(inst), NewChannelRunner(inst),
		NewRunnerFrozen(f), NewChannelRunnerFrozen(f),
	}
	for i, r := range runners {
		res, err := r.Run(prover, v, 2, 1, rand.New(rand.NewSource(7)))
		if err != nil || !res.Accepted {
			t.Fatalf("runner %d: accepted=%v err=%v", i, res != nil && res.Accepted, err)
		}
	}
	if got := FreezeCount() - before; got != 1 {
		t.Fatalf("freeze count delta = %d, want exactly 1", got)
	}
}

// TestFrozenSharedConcurrently: one frozen instance feeds many
// concurrent runners of both engines; results are deterministic per
// seed and the instance still froze exactly once. The CI race shard
// runs this under -race -count=2, which is the actual assertion: the
// shared frozen state is read-only across goroutines.
func TestFrozenSharedConcurrently(t *testing.T) {
	inst, prover, v := labeledFixture(64, 2)
	before := FreezeCount()
	f, err := Freeze(inst)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine owns its runner; only the frozen state is shared.
			var res *Result
			var err error
			if w%2 == 0 {
				res, err = NewRunnerFrozen(f).Run(prover, v, 2, 1, rand.New(rand.NewSource(11)))
			} else {
				res, err = NewChannelRunnerFrozen(f).Run(prover, v, 2, 1, rand.New(rand.NewSource(11)))
			}
			results[w], errs[w] = res, err
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !results[w].Accepted {
			t.Fatalf("worker %d rejected", w)
		}
		if results[w].Stats.MaxLabelBits != results[0].Stats.MaxLabelBits ||
			results[w].Stats.TotalLabelBits != results[0].Stats.TotalLabelBits {
			t.Fatalf("worker %d stats diverge from worker 0 on the same seed", w)
		}
	}
	if got := FreezeCount() - before; got != 1 {
		t.Fatalf("freeze count delta = %d, want exactly 1", got)
	}
}

// TestRepeatFreezesOnce: Protocol.Repeat re-runs the interaction many
// times on one instance; the dense form must be built once, not per
// repetition.
func TestRepeatFreezesOnce(t *testing.T) {
	inst, prover, v := labeledFixture(32, 2)
	p := &Protocol{
		Name:           "freeze-once",
		ProverRounds:   2,
		VerifierRounds: 1,
		NewProver:      func() Prover { return prover },
		Verifier:       v,
	}
	before := FreezeCount()
	tr, err := p.Repeat(inst, 5, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Accepts != tr.Runs || tr.Runs != 5 {
		t.Fatalf("repeat: %d/%d accepts", tr.Accepts, tr.Runs)
	}
	if got := FreezeCount() - before; got != 1 {
		t.Fatalf("freeze count delta = %d after Repeat(5), want exactly 1", got)
	}
}
