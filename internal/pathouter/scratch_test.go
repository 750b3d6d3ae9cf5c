package pathouter

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dip"
)

// allocRecorder decides like the real verifier and, while the engine
// still holds the node's view and the run's rows, measures how often
// the real Decide allocates at that node.
type allocRecorder struct {
	Verifier
	t      *testing.T
	nodes  int
	allocs float64
}

func (ar *allocRecorder) Decide(view *dip.View) bool {
	ok := ar.Verifier.Decide(view)
	ar.allocs += testing.AllocsPerRun(10, func() {
		if ar.Verifier.Decide(view) != ok {
			ar.t.Error("Decide changed its verdict on the same view")
		}
	})
	ar.nodes++
	return ok
}

// TestDecideScratchPooled gates the pooled decide scratch: deciding
// every node of an honest run again must not rebuild the per-node
// tables. Unpooled, Decide allocates about 8.9 times per node here.
// With the pool, the run's rows and forestcode.Decode appending child
// ports to the pooled scratch, it does not allocate at all; under the
// race detector, which drops a quarter of sync.Pool puts, about 1.5
// times. The engine runs on one worker, inline, so the measurement sees
// no other node's allocations.
func TestDecideScratchPooled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(5))
	inst := yesInstance(rng, 64, 0.5)
	p, err := NewParams(64)
	if err != nil {
		t.Fatal(err)
	}
	rec := &allocRecorder{Verifier: Verifier{P: p}, t: t}
	proto := Protocol(inst, p)
	proto.Verifier = rec
	res, err := proto.RunOnce(dip.NewInstance(inst.G), rng)
	if err != nil || !res.Accepted {
		t.Fatalf("honest run: accepted=%v err=%v", res != nil && res.Accepted, err)
	}
	t.Logf("%d nodes, %.2f allocs per Decide", rec.nodes, rec.allocs/float64(rec.nodes))
	if perNode := rec.allocs / float64(rec.nodes); perNode > 7 {
		t.Errorf("Decide allocates %.2f times per node, want <= 7 (pooled scratch)", perNode)
	}
}
