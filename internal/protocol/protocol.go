// Package protocol is the central registry of the repository's
// distributed interactive proofs: one Descriptor per paper theorem,
// carrying the protocol's wire name, declared round count, declared
// proof-size bound, witness planner, and a uniform execution adapter.
// The certification service, the cmd tools, and the conformance tests
// all dispatch through this registry instead of per-call-site protocol
// tables, so adding protocol number eight is one new file in this
// package (see DESIGN.md, "The protocol registry").
package protocol

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dip"
	"repro/internal/graph"
	"repro/internal/planar"
)

// Instance is the materialized input of one certification run: the
// graph plus whatever prover-side witness the caller supplied. Witness
// fields a protocol does not consume are ignored; witness fields it
// does consume are optional — the honest prover falls back to the
// centralized oracles (see each Descriptor's Witness planner). From an
// instance's second Run of a descriptor on, the instance also keeps
// that descriptor's prepared value (see Descriptor.Prepare), so it must
// not be mutated after its first Run.
type Instance struct {
	G *graph.Graph
	// PathPos is the Hamiltonian-path witness of the pathouter and pls
	// protocols (PathPos[v] = position of v on the path).
	PathPos []int
	// Rotation is the combinatorial-embedding witness of the embedding
	// and planarity protocols.
	Rotation *planar.Rotation

	// dipOnce/dipInst memoize DIP(). Always access through DIP().
	dipOnce sync.Once
	dipInst *dip.Instance

	// memos holds one prepared-value memo per descriptor run on the
	// instance. Always access through prepared().
	memoMu sync.Mutex
	memos  map[*Descriptor]*prepMemo
}

// DIP returns the instance's engine-level dip.Instance, created once
// and memoized. Because dip memoizes the dense frozen form per
// dip.Instance, every Run against the same protocol Instance — a
// Repeat, a soundness sweep cell, repeated service requests interned to
// one Instance — densifies (freezes) the graph exactly once. The
// instance must not be mutated after the first Run.
func (in *Instance) DIP() *dip.Instance {
	in.dipOnce.Do(func() { in.dipInst = dip.NewInstance(in.G) })
	return in.dipInst
}

// prepMemo counts one descriptor's runs on one instance and, from the
// second run on, keeps its prepared value.
type prepMemo struct {
	runs  atomic.Uint64
	once  sync.Once
	value any
	err   error
}

// prepared returns d's prepared value for in. A first run prepares the
// value, uses it and drops it; the second run prepares it once more and
// stores it on the instance for every later run. Most instances are
// certified once — a request that misses the result cache, a set-up
// run — and would only hold the value as garbage for as long as they
// stay referenced; an instance certified twice is likely to be
// certified again. Runs racing to store wait for the one that does.
func (in *Instance) prepared(d *Descriptor) (any, error) {
	in.memoMu.Lock()
	m := in.memos[d]
	if m == nil {
		if in.memos == nil {
			in.memos = map[*Descriptor]*prepMemo{}
		}
		m = &prepMemo{}
		in.memos[d] = m
	}
	in.memoMu.Unlock()
	if m.runs.Add(1) == 1 {
		return d.Prepare(in)
	}
	m.once.Do(func() { m.value, m.err = d.Prepare(in) })
	return m.value, m.err
}

// Outcome is the protocol-level result of one certification run. It is
// the unified dip.Outcome every protocol package's Run returns
// directly, so the registry adapters pass results through instead of
// remapping per-package structs.
type Outcome = dip.Outcome

// WitnessKind names what a protocol's honest prover consumes from the
// Instance, for wire-level metadata (/protocolz) and docs.
type WitnessKind string

const (
	// WitnessNone: the prover plans its decomposition internally.
	WitnessNone WitnessKind = "none"
	// WitnessPath: Instance.PathPos, with PathOuterplanarOrder as the
	// fallback oracle.
	WitnessPath WitnessKind = "path"
	// WitnessRotation: Instance.Rotation, with the DMP embedder as the
	// fallback oracle.
	WitnessRotation WitnessKind = "rotation"
)

// Descriptor is one registered protocol: fixed metadata straight from
// the paper theorem plus the adapters that execute it. All fields
// except Suite and Summary are required by Register.
type Descriptor struct {
	// Name is the wire name ("pathouter", "planarity", ...): the
	// /certify protocol field, the diptrace -protocol value, the
	// diploadgen mix entry.
	Name string
	// Theorem cites the Gil–Parter (PODC 2025) statement implemented.
	Theorem string
	// Suite is the EXPERIMENTS.md experiment id of the protocol's size
	// sweep ("E1", ...), used by dipbench to title its tables.
	Suite string
	// Summary is a one-line description for /protocolz and usage text.
	Summary string
	// Family is the internal/gen generator family whose instances the
	// protocol naturally certifies; the conformance tests and dipbench
	// sweeps build their instances from it.
	Family string
	// NoFamily is the internal/gen generator family of matched
	// no-instances: inputs just outside the protocol's promise that its
	// soundness should reject. The Monte-Carlo soundness estimator
	// sweeps it per strategy.
	NoFamily string
	// Witness is what the honest prover consumes from the Instance.
	Witness WitnessKind

	// Rounds is the declared interaction-round count; consumers report
	// it instead of hardcoding per-protocol literals, and the registry
	// tests assert it against observed trace round counts.
	Rounds int
	// BoundExpr is the declared proof-size bound as stated in the
	// paper, e.g. "O(log log n + log Δ)".
	BoundExpr string
	// ProofSizeBound instantiates BoundExpr in bits for an n-node
	// instance of maximum degree delta. The bound-conformance test
	// asserts measured proof sizes stay below it on honest runs across
	// a size sweep, turning the theorem into a machine-checked
	// invariant.
	ProofSizeBound func(n, delta int) int

	// Prepare computes the coin-free half of a run on inst: witness
	// resolution, reductions, derived instances and the honest prover's
	// rounds before the first coin. It must draw no randomness, and
	// every Exec treats its value as read-only, so concurrent runs share
	// it. An error fails every run on inst.
	Prepare func(inst *Instance) (any, error)
	// Exec runs the protocol from a value Prepare returned, with the
	// given verifier randomness. A nil error with
	// Outcome.ProverFailed=true means the honest prover could not build
	// a witness; execution faults and context aborts are errors.
	Exec func(prepared any, rng *rand.Rand, opts ...dip.RunOption) (*Outcome, error)
}

// Run executes the protocol on inst with verifier randomness derived
// from seed, bounded by ctx (checked between interaction rounds; nil or
// Background leaves the run unbounded). Options attach a tracer or an
// adversary; they are appended after the context binding, so callers
// can override it. From the third Run of d on inst on, the prepared
// half comes from the instance (see prepared).
func (d *Descriptor) Run(ctx context.Context, inst *Instance, seed int64, opts ...dip.RunOption) (*Outcome, error) {
	if inst == nil || inst.G == nil {
		return nil, fmt.Errorf("protocol: %s: instance has no graph", d.Name)
	}
	run := make([]dip.RunOption, 0, len(opts)+1)
	if ctx != nil {
		run = append(run, dip.WithContext(ctx))
	}
	run = append(run, opts...)
	prep, err := inst.prepared(d)
	if err != nil {
		return nil, err
	}
	return d.Exec(prep, rand.New(rand.NewSource(seed)), run...)
}

// prepareGraph is the Prepare of a protocol whose honest prover does
// all its work inside each run: the prepared value is the graph.
func prepareGraph(in *Instance) (any, error) { return in.G, nil }

// registry maps wire names to descriptors. Registration happens in the
// init functions of this package's per-protocol files, so the map is
// read-only after package initialization and needs no locking.
var registry = map[string]*Descriptor{}

// Register adds d to the registry. It panics on duplicate names or
// incomplete descriptors — both are programming errors caught by any
// test of this package, not runtime conditions.
func Register(d Descriptor) {
	switch {
	case d.Name == "":
		panic("protocol: Register: empty name")
	case d.Theorem == "" || d.Family == "" || d.NoFamily == "" || d.BoundExpr == "":
		panic("protocol: Register: " + d.Name + ": missing metadata")
	case d.Rounds < 1:
		panic("protocol: Register: " + d.Name + ": invalid round count")
	case d.ProofSizeBound == nil || d.Prepare == nil || d.Exec == nil:
		panic("protocol: Register: " + d.Name + ": missing adapter")
	case d.Witness == "":
		panic("protocol: Register: " + d.Name + ": missing witness kind")
	}
	if _, dup := registry[d.Name]; dup {
		panic("protocol: Register: duplicate name " + d.Name)
	}
	registry[d.Name] = &d
}

// Get returns the descriptor registered under name.
func Get(name string) (*Descriptor, bool) {
	d, ok := registry[name]
	return d, ok
}

// Names returns the registered wire names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All returns every descriptor, sorted by Suite then Name so menus and
// sweeps list protocols in experiment order.
func All() []*Descriptor {
	ds := make([]*Descriptor, 0, len(registry))
	for _, d := range registry {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Suite != ds[j].Suite {
			return ds[i].Suite < ds[j].Suite
		}
		return ds[i].Name < ds[j].Name
	})
	return ds
}

// NameList renders the registered names as a single human-readable
// list, the one source of truth behind /certify unknown-protocol
// errors and cmd usage text.
func NameList() string {
	return strings.Join(Names(), ", ")
}
