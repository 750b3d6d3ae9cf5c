package pathouter

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dip"
	"repro/internal/graph"
)

// markLiar implements the Observation 5.2 attack surface: it runs the
// honest prover but mislabels the longest-right mark at one node (moving
// the mark from the true longest right edge to a shorter one and
// re-flagging the true longest as its head's longest-left), then swaps
// the two edges' succ labels to keep the chains locally plausible. The
// observation proves the verifier still rejects with probability
// 1 - 2^-cL because the name chains anchor to fresh randomness.
type markLiar struct {
	inner *Honest
	p     Params
	// the ids of the two edges at the victim node
	longest, shorter int
}

func (ml *markLiar) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	a, err := ml.inner.Round(round, coins)
	if err != nil {
		return a, err
	}
	switch round {
	case 0:
		le, err2 := DecodeRound1Edge(a.Edge[ml.longest], ml.p)
		if err2 != nil {
			return nil, err2
		}
		se, err2 := DecodeRound1Edge(a.Edge[ml.shorter], ml.p)
		if err2 != nil {
			return nil, err2
		}
		le.LongestTailRight = false
		le.LongestHeadLeft = true
		se.LongestTailRight = true
		a.Edge[ml.longest] = le.Encode(ml.p)
		a.Edge[ml.shorter] = se.Encode(ml.p)
	case 1:
		le, err2 := DecodeRound2Edge(a.Edge[ml.longest], ml.p)
		if err2 != nil {
			return nil, err2
		}
		se, err2 := DecodeRound2Edge(a.Edge[ml.shorter], ml.p)
		if err2 != nil {
			return nil, err2
		}
		le.Succ, se.Succ = se.Succ, le.Succ
		a.Edge[ml.longest] = le.Encode(ml.p)
		a.Edge[ml.shorter] = se.Encode(ml.p)
	}
	return a, nil
}

// TestSoundnessLongestMarkLie exercises Observation 5.2: mislabeled
// longest edges survive only on a name collision (2^-cL).
func TestSoundnessLongestMarkLie(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	accepts, total := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 16 + rng.Intn(40)
		inst := yesInstance(rng, n, 0.7)
		// Find a node with at least two right (outgoing) chords.
		victim, longest, shorter := findTwoRightChords(inst)
		if victim == -1 {
			continue
		}
		total++
		p, err := NewParams(n)
		if err != nil {
			t.Fatal(err)
		}
		di := dip.NewInstance(inst.G)
		proto := AdversarialProtocol(p, func() dip.Prover {
			h, err := NewHonest(p, inst)
			if err != nil {
				panic(err)
			}
			return &markLiar{inner: h, p: p, longest: longest, shorter: shorter}
		})
		res, err := proto.RunOnce(di, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			accepts++
		}
	}
	if total < 10 {
		t.Skip("too few instances with a double right chord")
	}
	if accepts > 1 {
		t.Fatalf("longest-mark lie accepted %d/%d times", accepts, total)
	}
}

// findTwoRightChords locates a vertex with >= 2 rightward chords and
// returns its longest and a shorter one.
func findTwoRightChords(inst *Instance) (victim, longest, shorter int) {
	n := inst.G.N()
	for v := 0; v < n; v++ {
		var heads []int
		for _, u := range inst.G.Neighbors(v) {
			d := inst.Pos[u] - inst.Pos[v]
			if d >= 2 {
				heads = append(heads, u)
			}
		}
		if len(heads) < 2 {
			continue
		}
		best, second := -1, -1
		for _, u := range heads {
			if best == -1 || inst.Pos[u] > inst.Pos[best] {
				second = best
				best = u
			} else if second == -1 || inst.Pos[u] > inst.Pos[second] {
				second = u
			}
		}
		return v, inst.G.EdgeID(v, best), inst.G.EdgeID(v, second)
	}
	return -1, -1, -1
}

// garbageProver feeds syntactically invalid labels: the verifier must
// reject without panicking (malformed-label robustness).
type garbageProver struct {
	g   *graph.Graph
	rng *rand.Rand
}

func (gp *garbageProver) Round(round int, coins [][]bitio.String) (*dip.Assignment, error) {
	a := dip.NewEdgeAssignment(gp.g)
	for v := 0; v < gp.g.N(); v++ {
		var w bitio.Writer
		bits := gp.rng.Intn(64)
		for i := 0; i < bits; i++ {
			w.WriteBool(gp.rng.Intn(2) == 1)
		}
		a.Node[v] = w.String()
	}
	for id := range a.Edge {
		if gp.rng.Intn(2) == 0 {
			a.Edge[id] = bitio.FromUint(uint64(gp.rng.Intn(255)), 8)
		}
	}
	return a, nil
}

func TestMalformedLabelsRejectedWithoutPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	inst := yesInstance(rng, 30, 0.5)
	p, err := NewParams(30)
	if err != nil {
		t.Fatal(err)
	}
	di := dip.NewInstance(inst.G)
	proto := AdversarialProtocol(p, func() dip.Prover {
		return &garbageProver{g: inst.G, rng: rand.New(rand.NewSource(rng.Int63()))}
	})
	res, err := proto.Repeat(di, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepts != 0 {
		t.Fatalf("garbage labels accepted %d times", res.Accepts)
	}
}
