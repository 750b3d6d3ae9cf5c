package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/gen"
	"repro/internal/protocol"
	"repro/internal/serve"
)

// request is one generated certify request: the exact bytes sent, plus
// what the output checks need to judge the response. The server sees
// only body; nothing in it names the workload.
type request struct {
	body     []byte
	protocol string
	n        int // vertex count of the materialized instance
	delta    int // maximum degree, for ProofSizeBound
}

// workload is one closed-loop traffic mix.
type workload struct {
	name    string
	clients int
	// setup is certified, split across the clients, after each server
	// boot and before the clock starts.
	setup []*request
	// timed returns the i-th request of the timed phase; the sequence is
	// a pure function of the seed.
	timed func(i int) *request
	// poolSize bounds the distinct timed requests (0 = unbounded); a run
	// that would need more fails instead of repeating inputs.
	poolSize int
	// wantHit is the cache_hit every timed response must report.
	wantHit bool
	// tailP is the latency percentile tail_ms reports: 99 where a run
	// completes thousands of operations, 50 on bulk-large (20–30 per
	// run, too few for a p99).
	tailP float64
	// history is the ledger length fresh-durable's server replays at boot.
	history int
	// fingerprintEvery selects the fixed fingerprint sample: timed
	// request indices that are multiples of it. 0 samples none: the
	// timed hits of hit-inline are compared with their set-up verdicts,
	// every eighth of which is sampled instead.
	fingerprintEvery int
}

var workloadNames = []string{"hit-inline", "fresh-durable", "bulk-large"}

// Sizes of the generated inputs. The slow classes anchor p99 (2–3% of
// operations; see README.md, "Noise facts").
const (
	hitCount      = 64
	hitLargeN     = 16384
	freshSlowN    = 256
	freshSlowStep = 50
	bulkN         = 8192
	// freshHistory is the ledger length fresh-durable replays at boot.
	freshHistory = 200_000
	// freshMaxRate bounds the fresh-durable pool: requests per second of
	// timed phase that are generated up front (about three times the
	// ~125/s measured on two vCPUs).
	freshMaxRate = 400
)

// splitmix64 derives independent stream seeds from (seed, stream, i),
// so every input is a pure function of the benchmark's seed argument.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func derive(seed int64, stream string, i int) int64 {
	h := splitmix64(uint64(seed))
	for _, c := range []byte(stream) {
		h = splitmix64(h ^ uint64(c))
	}
	return int64(splitmix64(h^uint64(i)) >> 1)
}

// inlineRequest generates an inline-graph request for protocol name on
// an n-vertex instance of the protocol's own generator family. The
// pathouter and pls provers get the generator's Hamiltonian-path
// witness; the rotation witness cannot travel inline, so embedding and
// planarity provers plan their own embedding.
func inlineRequest(name string, n int, graphSeed, verifierSeed int64) (*request, error) {
	d, ok := protocol.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
	spec := gen.FamilySpec{Family: d.Family, N: n, ChordProb: -1}
	g, pos, _, err := spec.BuildWitnessed(rand.New(rand.NewSource(graphSeed)))
	if err != nil {
		return nil, err
	}
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{e.U, e.V})
	}
	req := serve.Request{Protocol: name, Seed: verifierSeed, Graph: &serve.GraphJSON{N: g.N(), Edges: edges}}
	if d.Witness == protocol.WitnessPath {
		req.WitnessPos = pos
	}
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	return &request{body: body, protocol: name, n: g.N(), delta: g.MaxDegree()}, nil
}

// hitMaxN caps hit-inline's per-protocol sizes so that set-up (which
// certifies all 64 requests) stays near 2 s: the embedding-based and
// composite provers are superlinear.
var hitMaxN = map[string]int{
	"pathouter": 1000, "pls": 1000, "outerplanar": 500, "sp": 500,
	"planarity": 250, "embedding": 250, "treewidth2": 250,
}

// hitInline builds the 64 resubmitted requests: 62 spread round-robin
// over the seven protocols at n in [200, hitMaxN], plus two ~16k-node
// path-outerplanar graphs (pathouter and pls, whose provers are cheap
// at that size), which form the slow class. Each protocol's sizes are
// stratified — the j-th of its k requests draws n from the j-th of k
// equal slices of its range — so the size mix, and with it p50, is
// nearly the same for every seed while the graphs differ.
func hitInline(seed int64) (*workload, error) {
	names := protocol.Names()
	set := make([]*request, hitCount)
	var err error
	if set[0], err = inlineRequest("pathouter", hitLargeN, derive(seed, "hit-graph", 0), derive(seed, "hit-verifier", 0)); err != nil {
		return nil, err
	}
	if set[1], err = inlineRequest("pls", hitLargeN, derive(seed, "hit-graph", 1), derive(seed, "hit-verifier", 1)); err != nil {
		return nil, err
	}
	perProto := map[string][]int{}
	for i := 2; i < hitCount; i++ {
		name := names[i%len(names)]
		perProto[name] = append(perProto[name], i)
	}
	for name, idxs := range perProto {
		lo, span := 200.0, float64(hitMaxN[name]-200)
		for j, i := range idxs {
			u := rand.New(rand.NewSource(derive(seed, "hit-shape", i))).Float64()
			n := int(lo + (float64(j)+u)*span/float64(len(idxs)))
			if set[i], err = inlineRequest(name, n, derive(seed, "hit-graph", i), derive(seed, "hit-verifier", i)); err != nil {
				return nil, err
			}
		}
	}
	// The timed phase cycles through the set in a seeded order.
	order := rand.New(rand.NewSource(derive(seed, "hit-order", 0))).Perm(hitCount)
	return &workload{
		name:    "hit-inline",
		clients: 2,
		setup:   set,
		timed:   func(i int) *request { return set[order[i%hitCount]] },
		wantHit: true,
		tailP:   99,
	}, nil
}

// freshDurable yields never-seen inline graphs cycling the seven
// protocols at n in [48, 128]; every 50th request is a 256-node
// planarity triangulation (the slow class). The heavier provers are
// superlinear, so keeping the regular mix at n <= 128 keeps the slow
// class clearly above every regular request, and at a 2% share p99
// falls on the middle of the class rather than its upper edge.
func freshDurable(seed int64, seconds int) (*workload, error) {
	names := protocol.Names()
	size := seconds*freshMaxRate + 1
	pool := make([]*request, size)
	for i := range pool {
		var (
			name string
			n    int
		)
		if i%freshSlowStep == freshSlowStep-1 {
			name, n = "planarity", freshSlowN
		} else {
			rng := rand.New(rand.NewSource(derive(seed, "fresh-shape", i)))
			name = names[i%len(names)]
			n = 48 + rng.Intn(128-48+1)
		}
		r, err := inlineRequest(name, n, derive(seed, "fresh-graph", i), derive(seed, "fresh-verifier", i))
		if err != nil {
			return nil, err
		}
		pool[i] = r
	}
	return &workload{
		name:             "fresh-durable",
		clients:          2,
		timed:            func(i int) *request { return pool[i] },
		poolSize:         size,
		tailP:            99,
		history:          freshHistory,
		fingerprintEvery: 101,
	}, nil
}

// bulkLarge re-certifies one 8,192-node triangulation gen spec with
// planarity (Theorem 1.5) under a fresh verifier seed per request. The
// generator seed is fixed per benchmark seed, so after set-up every
// request hits the server's instance cache.
func bulkLarge(seed int64) (*workload, error) {
	graphSeed := derive(seed, "bulk-graph", 0)
	spec := gen.FamilySpec{Family: "triangulation", N: bulkN, ChordProb: -1}
	g, _, _, err := spec.BuildWitnessed(rand.New(rand.NewSource(graphSeed)))
	if err != nil {
		return nil, err
	}
	mk := func(i int) *request {
		verifier := derive(seed, "bulk-verifier", i)
		req := serve.Request{Protocol: "planarity", Seed: verifier,
			Gen: &serve.GenSpecJSON{Family: "triangulation", N: bulkN, Seed: graphSeed}}
		body, _ := json.Marshal(&req) // plain struct: cannot fail
		return &request{body: body, protocol: "planarity", n: g.N(), delta: g.MaxDegree()}
	}
	return &workload{
		name:             "bulk-large",
		clients:          1,
		setup:            []*request{mk(0)},
		timed:            func(i int) *request { return mk(i + 1) },
		tailP:            50,
		fingerprintEvery: 1 << 30, // only the first timed request
	}, nil
}

// newWorkload generates the named workload's inputs from seed.
func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	switch name {
	case "hit-inline":
		return hitInline(seed)
	case "fresh-durable":
		return freshDurable(seed, seconds)
	case "bulk-large":
		return bulkLarge(seed)
	}
	known := append([]string(nil), workloadNames...)
	sort.Strings(known)
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, known)
}
