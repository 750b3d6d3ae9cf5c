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
// both engine constructors, several runners of each, repeated runs —
// shares a single dense freeze, observed through the package freeze
// counter.
func TestFreezeOnceSharedAcrossRunners(t *testing.T) {
	inst, prover, v := labeledFixture(32, 2)
	before := FreezeCount()

	r1, r2 := NewRunner(inst), NewRunner(inst)
	if r1.fi != r2.fi || r1.fi != inst.freeze() {
		t.Fatal("runners on one instance hold different frozen forms")
	}
	if r1.fi.n != 32 || r1.fi.g.M() != 31 {
		t.Fatalf("frozen form reports n=%d m=%d, want 32/31", r1.fi.n, r1.fi.g.M())
	}
	runners := []engine{r1, r2, newChannelRunner(inst), newChannelRunner(inst)}
	for i, r := range runners {
		for run := 0; run < 2; run++ {
			res, err := r.Run(prover, v, 2, 1, rand.New(rand.NewSource(7)))
			if err != nil || !res.Accepted {
				t.Fatalf("runner %d run %d: accepted=%v err=%v", i, run, res != nil && res.Accepted, err)
			}
		}
	}
	if got := FreezeCount() - before; got != 1 {
		t.Fatalf("freeze count delta = %d, want exactly 1", got)
	}
}

// TestFrozenSharedConcurrently: one instance feeds many concurrent
// runners of both engines, which race to freeze it; results are
// deterministic per seed and the instance still froze exactly once.
// The CI race shard runs this under -race -count=2, which is the actual
// assertion: the memoized frozen form is built once under the
// instance's lock and read-only across goroutines after that.
func TestFrozenSharedConcurrently(t *testing.T) {
	inst, prover, v := labeledFixture(64, 2)
	before := FreezeCount()

	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine owns its runner; only the frozen state is shared.
			var r engine = NewRunner(inst)
			if w%2 == 1 {
				r = newChannelRunner(inst)
			}
			results[w], errs[w] = r.Run(prover, v, 2, 1, rand.New(rand.NewSource(11)))
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
