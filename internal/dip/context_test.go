package dip

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/obs"
)

// cancelingProver cancels the attached context during a chosen round, so
// the engine's between-round check must abort before the next round.
type cancelingProver struct {
	cancel context.CancelFunc
	at     int
}

func (cp *cancelingProver) Round(round int, coins [][]bitio.String) (*Assignment, error) {
	if round == cp.at {
		cp.cancel()
	}
	return nil, nil
}

func TestRunnerAbortsOnCanceledContext(t *testing.T) {
	g := pathGraph(4)
	inst := NewInstance(g)
	v := echoVerifier{decide: func(*View) bool { return true }}
	ctx, cancel := context.WithCancel(context.Background())
	p := &cancelingProver{cancel: cancel, at: 1}
	_, err := NewRunner(inst).Run(p, v, 4, 3, rand.New(rand.NewSource(1)), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunnerPreCanceledContext(t *testing.T) {
	g := pathGraph(4)
	inst := NewInstance(g)
	v := echoVerifier{decide: func(*View) bool { return true }}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewRunner(inst).Run(&fixedProver{}, v, 2, 1, rand.New(rand.NewSource(1)), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestChannelRunnerAbortsOnCanceledContext(t *testing.T) {
	g := pathGraph(4)
	inst := NewInstance(g)
	v := echoVerifier{decide: func(*View) bool { return true }}
	ctx, cancel := context.WithCancel(context.Background())
	p := &cancelingProver{cancel: cancel, at: 1}
	// The channel engine must both return the error and reap every node
	// goroutine (its error path drains them; -race would flag leaks via
	// the test's own teardown checks).
	_, err := newChannelRunner(inst).Run(p, v, 4, 3, rand.New(rand.NewSource(1)), WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestCanceledTracedRunBalancesSpan(t *testing.T) {
	g := pathGraph(4)
	inst := NewInstance(g)
	v := echoVerifier{decide: func(*View) bool { return true }}
	ctx, cancel := context.WithCancel(context.Background())
	p := &cancelingProver{cancel: cancel, at: 0}
	collect := obs.NewCollect()
	_, err := NewRunner(inst).Run(p, v, 3, 2, rand.New(rand.NewSource(1)),
		WithContext(ctx), WithTracer(collect))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	runs := collect.Runs()
	if len(runs) != 1 {
		t.Fatalf("want 1 closed span, got %d", len(runs))
	}
	if runs[0].Err == "" || runs[0].Accepted {
		t.Fatalf("canceled span must record the error and reject, got %+v", runs[0])
	}
}

func TestChildPropagatesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := NewRunConfig(WithContext(ctx))
	child := NewRunConfig(cfg.Child("sub")...)
	if child.Ctx != ctx {
		t.Fatal("Child dropped the context")
	}
	// Untraced, uncanceled config stays on the zero-cost nil path.
	if opts := NewRunConfig().Child("sub"); opts != nil {
		t.Fatalf("plain config Child must be nil, got %d options", len(opts))
	}
}
