package dip

import "sync/atomic"

// freezeCount counts frozenInstance densifications process-wide. The
// freeze-once guarantees of Repeat, the soundness estimator, and the
// serving layer are asserted against it: a sweep that re-densifies per
// run shows up as a counter delta equal to its run count instead of 1.
var freezeCount atomic.Uint64

// FreezeCount returns the number of instance densifications performed
// by this process so far. It only ever increases; callers compare
// before/after deltas.
func FreezeCount() uint64 { return freezeCount.Load() }

// Frozen is the first-class immutable form of an Instance: the dense
// edge-id-indexed inputs, CSR port tables, and accountable-endpoint
// orientation that every run needs, densified exactly once. A Frozen is
// read-only after construction and therefore freely shareable — many
// Runners/ChannelRunners (each goroutine owning its own runner) can
// execute against one Frozen concurrently. Freeze once, run many:
// Protocol.Repeat, the soundness estimator's strategy sweeps, and the
// serving layer all hold one Frozen per instance instead of
// re-densifying per run.
//
// The underlying Instance must not be mutated (graph, node inputs, or
// edge inputs) after freezing; the densified form would silently keep
// answering from the frozen state.
type Frozen struct {
	inst *Instance
	fi   *frozenInstance
}

// Freeze returns the frozen form of inst, memoized on the instance:
// the first call densifies, every later call returns the same handle.
// Instance-level input errors (an edge-input table whose length is
// neither 0 nor the edge count) surface here instead of at the first Run.
func Freeze(inst *Instance) (*Frozen, error) {
	f := inst.freeze()
	if err := f.fi.check(); err != nil {
		return nil, err
	}
	return f, nil
}

// Instance returns the instance this Frozen densified.
func (f *Frozen) Instance() *Instance { return f.inst }

// N returns the node count.
func (f *Frozen) N() int { return f.fi.n }

// M returns the edge count.
func (f *Frozen) M() int { return f.fi.g.M() }

// NewRunnerFrozen prepares an orchestrated-engine execution environment
// sharing f. Unlike NewRunner it performs no densification work at all;
// each concurrent executor should hold its own Runner (runners carry
// mutable per-run scratch), all backed by the same Frozen.
func NewRunnerFrozen(f *Frozen) *Runner {
	return &Runner{inst: f.inst, fi: f.fi}
}

// NewChannelRunnerFrozen is NewRunnerFrozen for the message-passing
// engine.
func NewChannelRunnerFrozen(f *Frozen) *ChannelRunner {
	return &ChannelRunner{inst: f.inst, fi: f.fi}
}

// freeze returns the instance's memoized frozenInstance wrapper,
// densifying on first use. Validation stays deferred (see
// frozenInstance.check) so the no-error constructors NewRunner and
// NewChannelRunner keep their signatures.
func (inst *Instance) freeze() *Frozen {
	inst.frozenMu.Lock()
	defer inst.frozenMu.Unlock()
	if inst.frozen == nil {
		inst.frozen = &Frozen{inst: inst, fi: newFrozenInstance(inst)}
	}
	return inst.frozen
}
