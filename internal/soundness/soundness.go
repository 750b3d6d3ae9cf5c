// Package soundness is the registry-driven Monte-Carlo soundness
// estimator: for every registered protocol descriptor it sweeps the
// protocol's matched no-instance family across adversary strategies
// and instance sizes, runs repeated executions against one shared
// frozen instance per cell with derived per-run seeds, and reports
// rejection-rate point estimates with Wilson score confidence
// intervals. A completeness cell per protocol
// (yes-family, adversary disabled) anchors each sweep: its rejection
// rate must be exactly 0, which turns the paper's perfect-completeness
// claims into a measured invariant alongside the soundness estimates.
package soundness

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/chaos"
	"repro/internal/dip"
	"repro/internal/gen"
	"repro/internal/protocol"
)

// Config bounds one estimation sweep.
type Config struct {
	// Protocols filters the registry by wire name; empty = all.
	Protocols []string
	// Strategies filters the chaos registry; empty = all.
	Strategies []string
	// Sizes lists the instance sizes n to sweep; empty = {32, 64}.
	Sizes []int
	// Runs is the Monte-Carlo sample count per cell; <= 0 = 40.
	Runs int
	// Seed derives every cell's instance and verifier seeds; two sweeps
	// with the same Config produce identical rows.
	Seed int64
}

// Row is one estimated cell: a (protocol, family, strategy, n) point
// with its rejection-rate estimate and 95% Wilson confidence interval.
type Row struct {
	Protocol string `json:"protocol"`
	// Kind is "completeness" (yes-family, adversary disabled; expected
	// rate 0) or "soundness" (no-family under an adversary strategy).
	Kind     string `json:"kind"`
	Family   string `json:"family"`
	Strategy string `json:"strategy,omitempty"`
	N        int    `json:"n"`
	Runs     int    `json:"runs"`
	// Rejects counts rejected executions; ProverFailures counts the
	// subset rejected because the honest prover could not construct a
	// witness (always <= Rejects).
	Rejects        int `json:"rejects"`
	ProverFailures int `json:"prover_failures"`
	// Rate is Rejects/Runs; Lo and Hi bound it by the 95% Wilson score
	// interval.
	Rate float64 `json:"rejection_rate"`
	Lo   float64 `json:"wilson_lo"`
	Hi   float64 `json:"wilson_hi"`
	Seed int64   `json:"seed"`
}

// Wilson returns the Wilson score interval for k successes in n trials
// at confidence z (1.96 for 95%). It is well-defined at the k=0 and
// k=n boundaries where the normal approximation collapses, which is
// exactly where soundness sweeps live (rates near 1.0).
func Wilson(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	denom := 1 + z*z/nn
	center := (p + z*z/(2*nn)) / denom
	half := z * math.Sqrt(p*(1-p)/nn+z*z/(4*nn*nn)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// cellSeed derives a deterministic per-cell seed from the sweep seed
// and the cell coordinates (FNV-64a, the repo-wide child-seed idiom).
func cellSeed(base int64, protocol, strategy string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", base, protocol, strategy, n)
	return int64(h.Sum64() & math.MaxInt64)
}

// Estimate runs the sweep. ctx bounds the whole estimation: it is
// checked between executions and forwarded into each run, so
// cancellation aborts mid-cell with at most one round of latency.
func Estimate(ctx context.Context, cfg Config) ([]Row, error) {
	names := cfg.Protocols
	if len(names) == 0 {
		names = protocol.Names()
	}
	strategies := cfg.Strategies
	if len(strategies) == 0 {
		strategies = chaos.Names()
	}
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = []int{32, 64}
	}
	runs := cfg.Runs
	if runs <= 0 {
		runs = 40
	}

	var rows []Row
	for _, name := range names {
		d, ok := protocol.Get(name)
		if !ok {
			return rows, fmt.Errorf("soundness: unknown protocol %q (have %s)", name, protocol.NameList())
		}
		// Completeness anchor: yes-family, adversary disabled.
		row, err := estimateCell(ctx, cfg, d, "completeness", d.Family, "", sizes[0], runs)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
		for _, strategy := range strategies {
			for _, n := range sizes {
				row, err := estimateCell(ctx, cfg, d, "soundness", d.NoFamily, strategy, n, runs)
				if err != nil {
					return rows, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func estimateCell(ctx context.Context, cfg Config, d *protocol.Descriptor, kind, family, strategy string, n, runs int) (Row, error) {
	seed := cellSeed(cfg.Seed, d.Name+"/"+kind, strategy, n)
	row := Row{
		Protocol: d.Name, Kind: kind, Family: family,
		Strategy: strategy, N: n, Runs: runs, Seed: seed,
	}
	// One instance per cell, frozen once and shared by all runs: the
	// Monte-Carlo randomness is over verifier coins and adversary
	// choices (fresh derived seeds per run), not over instances, so the
	// sweep exercises exactly the freeze-once bulk path the engines
	// optimize for. The dense frozen form is memoized on the instance
	// by the dip layer; dip.FreezeCount certifies the reuse in tests.
	inst, err := buildInstance(family, n, seed)
	if err != nil {
		return row, fmt.Errorf("soundness: %s/%s n=%d: %w", d.Name, strategy, n, err)
	}
	for i := 0; i < runs; i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return row, fmt.Errorf("soundness: %s/%s n=%d: %w", d.Name, strategy, n, err)
			}
		}
		var opts []dip.RunOption
		if strategy != "" {
			adv, err := chaos.New(strategy, seed+int64(i))
			if err != nil {
				return row, err
			}
			opts = append(opts, dip.WithAdversary(adv))
		}
		out, err := d.Run(ctx, inst, seed+int64(i), opts...)
		if err != nil {
			if dip.Aborted(err) {
				return row, err
			}
			// Execution faults under fault injection are rejections: the
			// adversary broke the interaction itself.
			row.Rejects++
			continue
		}
		if !out.Accepted {
			row.Rejects++
		}
		if out.ProverFailed {
			row.ProverFailures++
		}
	}
	row.Rate = float64(row.Rejects) / float64(runs)
	row.Lo, row.Hi = Wilson(row.Rejects, runs, 1.96)
	return row, nil
}

// buildInstance materializes one fresh family instance, witness
// included, from a derived seed. The twisted family's generator can
// fail on unlucky draws (it perturbs until the embedding breaks), so
// a few derived seeds are tried before giving up.
func buildInstance(family string, n int, seed int64) (*protocol.Instance, error) {
	var lastErr error
	for attempt := 0; attempt < 4; attempt++ {
		spec := gen.FamilySpec{Family: family, N: n, ChordProb: -1}
		g, pos, rot, err := spec.BuildWitnessed(newRand(seed + int64(attempt)*0x9e3779b9))
		if err != nil {
			lastErr = err
			continue
		}
		return &protocol.Instance{G: g, PathPos: pos, Rotation: rot}, nil
	}
	return nil, lastErr
}

// WriteNDJSON streams rows as newline-delimited JSON, one row object
// per line, mirroring the observability layer's trace format so sweep
// outputs stay greppable and join-able.
func WriteNDJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
