package dip

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// RunConfig is the resolved per-execution option set: which tracer (if
// any) receives events, under which protocol/span identity they are
// tagged, and which context (if any) bounds the execution. Composite
// protocols use it to nest sub-executions under their own span via
// Child.
type RunConfig struct {
	// Tracer receives events; nil means tracing is disabled and the
	// engines skip event construction entirely (the zero-alloc hot path).
	Tracer   obs.Tracer
	Protocol string
	Span     string
	// Ctx, when non-nil, is checked between interaction rounds: a
	// canceled or expired context aborts the run with an error instead
	// of letting it finish. Round granularity keeps the hot path free of
	// per-node checks while still bounding abort latency by one round.
	Ctx context.Context
	// Adversary, when non-nil, is interposed at the engine boundary of
	// the run (coin filtering, label corruption, verdict overrides; see
	// the Adversary interface). Composite protocols forward it to their
	// sub-executions via Child, so one option faults a whole nested run.
	Adversary Adversary
	// hook observes every view read and row decode of the run and its
	// sub-executions. No exported option sets it: only tests do, to
	// check locality.
	hook viewHook
	// oracle, when non-nil, builds the engine Protocol.RunOnce and
	// Repeat execute on in place of a Runner, for the run and its
	// sub-executions. Only WithChannelEngine sets it, and only tests
	// call that. It is a constructor rather than a flag so that the
	// channel engine is referenced from that option alone, and a binary
	// that never selects it does not link it.
	oracle func(*Instance) engine
}

// RunOption configures one execution.
type RunOption func(*RunConfig)

// WithTracer directs trace events to t. Passing nil or obs.NopTracer
// disables tracing with zero hot-path cost: the engines guard every
// event site with a single nil check.
func WithTracer(t obs.Tracer) RunOption {
	return func(c *RunConfig) {
		if t == nil {
			c.Tracer = nil
			return
		}
		if _, nop := t.(obs.NopTracer); nop {
			c.Tracer = nil
			return
		}
		c.Tracer = t
	}
}

// WithProtocol tags events with a protocol identity. Protocol.RunOnce
// applies the protocol's own name automatically; explicit options
// override it.
func WithProtocol(name string) RunOption {
	return func(c *RunConfig) { c.Protocol = name }
}

// WithSpan places the execution at a nesting path ("" is the root;
// composite protocols place sub-executions at "structural",
// "component-3", ... under their own span).
func WithSpan(span string) RunOption {
	return func(c *RunConfig) { c.Span = span }
}

// WithContext bounds the execution by ctx: both engines check it
// between interaction rounds and abort with a wrapped ctx.Err() once it
// is canceled or past its deadline. Composite protocols forward the
// context to their sub-executions via Child. Passing nil or
// context.Background() leaves the run unbounded at zero hot-path cost.
func WithContext(ctx context.Context) RunOption {
	return func(c *RunConfig) {
		if ctx == nil || ctx == context.Background() {
			c.Ctx = nil
			return
		}
		c.Ctx = ctx
	}
}

// Aborted reports whether err stems from a canceled or expired
// WithContext context rather than a protocol/prover failure. Composite
// protocols use it to propagate aborts out of sub-execution loops that
// otherwise absorb sub-run errors as local rejections.
func Aborted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ctxErr reports the abort condition of the attached context, if any.
func (c *RunConfig) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return fmt.Errorf("dip: run aborted: %w", err)
	}
	return nil
}

// NewRunConfig resolves opts.
func NewRunConfig(opts ...RunOption) RunConfig {
	var c RunConfig
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Child returns the options for a sub-execution nested at span element
// sub: same tracer and context, span path extended by "/". With tracing
// disabled and no context attached it returns nil so sub-executions
// stay on the zero-cost path.
func (c RunConfig) Child(sub string) []RunOption {
	if c.Tracer == nil && c.Ctx == nil && c.Adversary == nil && c.hook == nil && c.oracle == nil {
		return nil
	}
	var opts []RunOption
	if c.hook != nil || c.oracle != nil { // the test-only fields
		hook, oracle := c.hook, c.oracle
		opts = append(opts, func(c *RunConfig) { c.hook, c.oracle = hook, oracle })
	}
	if c.Ctx != nil {
		opts = append(opts, WithContext(c.Ctx))
	}
	if c.Adversary != nil {
		opts = append(opts, WithAdversary(c.Adversary))
	}
	if c.Tracer == nil {
		return opts
	}
	span := sub
	if c.Span != "" {
		span = c.Span + "/" + sub
	}
	return append(opts, WithTracer(c.Tracer), WithSpan(span))
}

// event returns an Event pre-tagged with the execution identity.
func (c *RunConfig) event(kind obs.EventKind, engine string) obs.Event {
	return obs.Event{Kind: kind, Protocol: c.Protocol, Span: c.Span, Engine: engine}
}

// CompositeSpan opens a synthetic run span for a composite protocol
// (one that orchestrates nested engine executions and merges their
// accounting): it emits RunStart now, tagged with protocol (unless the
// config already carries a name), and returns the function that emits
// the matching RunEnd from the outcome *res holds by then, rejected
// with no proof size when it is nil. A composite defers the returned
// close function on its named result, so that every path out of it,
// failures included, keeps collectors' span stacks balanced:
//
//	defer cfg.CompositeSpan("name", g.N(), Rounds, &res)()
func (c RunConfig) CompositeSpan(protocol string, nodes, rounds int, res **Outcome) func() {
	if c.Tracer == nil {
		return func() {}
	}
	if c.Protocol == "" {
		c.Protocol = protocol
	}
	start := time.Now()
	ev := c.event(obs.RunStart, obs.EngineComposite)
	ev.Nodes = nodes
	ev.Rounds = rounds
	c.Tracer.Emit(ev)
	return func() {
		end := c.event(obs.RunEnd, obs.EngineComposite)
		end.Nodes = nodes
		end.Rounds = rounds
		if o := *res; o != nil {
			end.Accepted = o.Accepted
			end.MaxLabelBits = o.ProofSizeBits
		}
		end.WallNS = time.Since(start).Nanoseconds()
		c.Tracer.Emit(end)
	}
}

// emitRunStart/emitRoundStart/emitProverRoundEnd/emitVerifierRoundEnd/
// emitDecisions/emitRunEnd are the shared event-emission sites of the
// two engines; both call them in the same order with the same
// deterministic payloads, which is what makes cross-engine metric
// fingerprints byte-identical.

func (c *RunConfig) emitRunStart(engine string, nodes, rounds int) {
	ev := c.event(obs.RunStart, engine)
	ev.Nodes = nodes
	ev.Rounds = rounds
	c.Tracer.Emit(ev)
}

func (c *RunConfig) emitRoundStart(kind obs.EventKind, engine string, round int) {
	ev := c.event(kind, engine)
	ev.Round = round
	c.Tracer.Emit(ev)
}

func (c *RunConfig) emitProverRoundEnd(engine string, round int, labelBits []int, start time.Time) {
	ev := c.event(obs.ProverRoundEnd, engine)
	ev.Round = round
	ev.LabelBits = obs.HistOf(labelBits)
	ev.WallNS = time.Since(start).Nanoseconds()
	c.Tracer.Emit(ev)
}

func (c *RunConfig) emitVerifierRoundEnd(engine string, round int, coinBits []int, start time.Time, workers int, batchNS []int64) {
	ev := c.event(obs.VerifierRoundEnd, engine)
	ev.Round = round
	ev.CoinBits = obs.HistOf(coinBits)
	ev.WallNS = time.Since(start).Nanoseconds()
	ev.Workers = workers
	ev.BatchNS = batchNS
	c.Tracer.Emit(ev)
}

func (c *RunConfig) emitAdversaryAct(engine string, round int, name string, mutations int) {
	ev := c.event(obs.AdversaryAct, engine)
	ev.Round = round
	ev.Adversary = name
	ev.Mutations = mutations
	c.Tracer.Emit(ev)
}

func (c *RunConfig) emitDecisions(engine string, outputs []bool) {
	for v, o := range outputs {
		ev := c.event(obs.NodeDecide, engine)
		ev.Node = v
		ev.Accepted = o
		c.Tracer.Emit(ev)
	}
}

func (c *RunConfig) emitRunEnd(engine string, st *Stats, accepted bool, errMsg string, start time.Time, workers int, batchNS []int64) {
	ev := c.event(obs.RunEnd, engine)
	ev.Accepted = accepted
	ev.Rounds = st.Rounds
	ev.MaxLabelBits = st.MaxLabelBits
	ev.TotalLabelBits = st.TotalLabelBits
	ev.MaxCoinBits = st.MaxCoinBits
	ev.Err = errMsg
	ev.WallNS = time.Since(start).Nanoseconds()
	ev.Workers = workers
	ev.BatchNS = batchNS
	c.Tracer.Emit(ev)
}
