// Package obs is the observability layer of the DIP runtime: typed
// per-round trace events, aggregated metric snapshots, and an NDJSON
// event stream. It has no dependency on the rest of the repository (or
// on anything outside the standard library), so every layer — engines,
// composite protocols, experiments, commands — can emit into it without
// import cycles.
//
// The resource the paper bounds is communication, so events carry exact
// bit accounting (per-round per-node label and coin sizes, summarized as
// min/p50/max histograms) alongside wall-clock and scheduling data.
// Deterministic fields (bits, rounds, verdicts) are kept strictly
// separate from non-deterministic ones (wall time, worker counts) so
// that two engines executing the same protocol on the same seed can be
// compared byte-for-byte via Metrics.Fingerprint.
package obs

import "sort"

// EventKind enumerates the typed trace events of one protocol execution.
type EventKind uint8

const (
	// RunStart opens an execution span (an engine run or a composite
	// protocol wrapping nested engine runs).
	RunStart EventKind = iota
	// ProverRoundStart/End bracket one prover round (label assignment).
	ProverRoundStart
	ProverRoundEnd
	// VerifierRoundStart/End bracket one verifier round (coin sampling).
	VerifierRoundStart
	VerifierRoundEnd
	// NodeDecide reports one node's local accept/reject, emitted in
	// vertex order after the decision phase.
	NodeDecide
	// RunEnd closes an execution span with the terminal statistics.
	RunEnd
	// AdversaryAct reports one fault-injection act of an attached
	// adversary (internal/chaos): after each prover round with the
	// number of label/coin mutations injected, and once after the
	// decision phase with the number of flipped verdicts. The payload is
	// deterministic — both engines emit identical AdversaryAct sequences
	// for the same (seed, strategy), so fingerprints stay
	// engine-independent even under fault injection.
	AdversaryAct
)

// String returns the snake_case wire name of the kind.
func (k EventKind) String() string {
	switch k {
	case RunStart:
		return "run_start"
	case ProverRoundStart:
		return "prover_round_start"
	case ProverRoundEnd:
		return "prover_round_end"
	case VerifierRoundStart:
		return "verifier_round_start"
	case VerifierRoundEnd:
		return "verifier_round_end"
	case NodeDecide:
		return "node_decide"
	case RunEnd:
		return "run_end"
	case AdversaryAct:
		return "adversary_act"
	}
	return "unknown"
}

// Engine tags identify which execution engine emitted a span.
const (
	EngineRunner    = "runner"    // orchestrated engine (dip.Runner)
	EngineChannels  = "channels"  // message-passing engine, dip.Runner's test oracle
	EngineComposite = "composite" // composite protocol wrapping sub-runs
)

// Hist summarizes a per-node distribution of bit counts as min / median /
// max; Sum is the total over all nodes. The zero value means "no data"
// (distinguishable from a real all-zero distribution by N == 0).
type Hist struct {
	N   int
	Min int
	P50 int
	Max int
	Sum int
}

// HistOf summarizes vals without mutating it.
func HistOf(vals []int) Hist {
	if len(vals) == 0 {
		return Hist{}
	}
	sorted := append([]int(nil), vals...)
	sort.Ints(sorted)
	h := Hist{N: len(sorted), Min: sorted[0], P50: sorted[len(sorted)/2], Max: sorted[len(sorted)-1]}
	for _, v := range sorted {
		h.Sum += v
	}
	return h
}

// Event is one trace record. Which fields are meaningful depends on Kind;
// unused fields hold their zero value.
//
// Deterministic fields (identical across engines for the same seed):
// Kind, Protocol, Span, Round, Nodes, Rounds, LabelBits, CoinBits, Node,
// Accepted, MaxLabelBits, TotalLabelBits, MaxCoinBits, Err, Adversary,
// Mutations.
// Non-deterministic fields (timing/scheduling): Engine, WallNS, Workers,
// BatchNS.
type Event struct {
	Kind     EventKind
	Protocol string // protocol identity tag, e.g. "pathouter"
	Span     string // nesting path ("" = root; "component-3" etc. below)
	Engine   string // EngineRunner | EngineChannels | EngineComposite

	Round int // 0-based round index within its phase (round events)
	Nodes int // instance size (RunStart/RunEnd)
	// Rounds is the declared interaction-round count (RunStart/RunEnd).
	Rounds int

	// LabelBits summarizes per-node charged label bits of one prover
	// round (ProverRoundEnd), under accountable-endpoint edge accounting.
	LabelBits Hist
	// CoinBits summarizes per-node public-coin bits of one verifier
	// round (VerifierRoundEnd).
	CoinBits Hist

	Node     int  // vertex id (NodeDecide)
	Accepted bool // NodeDecide / RunEnd

	// Terminal statistics (RunEnd).
	MaxLabelBits   int
	TotalLabelBits int
	MaxCoinBits    int
	Err            string // non-empty when the run failed with an error

	// Fault injection (AdversaryAct): the strategy name and the number
	// of mutations the adversary injected in the bracketed phase (label
	// bit-flips/withholdings per prover round, flipped verdicts after
	// the decision phase).
	Adversary string
	Mutations int

	// Timing and scheduling (never part of fingerprints).
	WallNS  int64   // elapsed wall time of the bracketed phase / run
	Workers int     // goroutine pool size of the bracketed parallel phase
	BatchNS []int64 // per-worker busy time within the pool
}

// Tracer receives trace events. Engines emit events sequentially from
// their orchestration loop, so implementations only need to be
// goroutine-safe if one tracer is shared across concurrent executions;
// the implementations in this package all lock internally.
type Tracer interface {
	Emit(Event)
}

// NopTracer discards every event. The engines special-case it (and nil)
// so that a disabled tracer costs a single pointer comparison on the hot
// path, with no event construction and no allocation.
type NopTracer struct{}

// Emit implements Tracer by doing nothing.
func (NopTracer) Emit(Event) {}

// multi fans events out to several tracers.
type multi struct{ ts []Tracer }

func (m multi) Emit(ev Event) {
	for _, t := range m.ts {
		t.Emit(ev)
	}
}

// Multi returns a tracer duplicating every event to all non-nil,
// non-Nop tracers. With zero live targets it returns NopTracer; with one
// it returns that tracer unwrapped.
func Multi(ts ...Tracer) Tracer {
	live := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t == nil {
			continue
		}
		if _, nop := t.(NopTracer); nop {
			continue
		}
		live = append(live, t)
	}
	switch len(live) {
	case 0:
		return NopTracer{}
	case 1:
		return live[0]
	}
	return multi{ts: live}
}
