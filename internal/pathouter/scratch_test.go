package pathouter

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitio"
	"repro/internal/dip"
)

// viewRecorder decides like the real verifier and keeps a deep copy of
// every view, so a test can replay Decide outside the engine.
type viewRecorder struct {
	Verifier
	mu    sync.Mutex
	views []*dip.View
}

func (vr *viewRecorder) Decide(view *dip.View) bool {
	c := *view
	c.Coins = slices.Clone(view.Coins)
	c.Own = slices.Clone(view.Own)
	c.Nbr = make([][]bitio.String, len(view.Nbr))
	c.EdgeLab = make([][]bitio.String, len(view.EdgeLab))
	for p := range view.Nbr {
		c.Nbr[p] = slices.Clone(view.Nbr[p])
		c.EdgeLab[p] = slices.Clone(view.EdgeLab[p])
	}
	c.EdgeIn = slices.Clone(view.EdgeIn)
	c.NbrID = slices.Clone(view.NbrID)
	vr.mu.Lock()
	vr.views = append(vr.views, &c)
	vr.mu.Unlock()
	return vr.Verifier.Decide(view)
}

// TestDecideScratchPooled gates the pooled decide scratch: replaying
// Decide over every node's view of an honest run must not rebuild the
// per-node tables. Unpooled, Decide allocates about 8.9 times per node
// here. At n=64 no label field read spills past 64 bits, so with the
// pool only forestcode.Decode's child-port list is left, about once per
// node; under the race detector, which drops a quarter of sync.Pool
// puts, about 5 times.
func TestDecideScratchPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := yesInstance(rng, 64, 0.5)
	p, err := NewParams(64)
	if err != nil {
		t.Fatal(err)
	}
	rec := &viewRecorder{Verifier: Verifier{P: p}}
	proto := Protocol(inst, p)
	proto.Verifier = rec
	res, err := proto.RunOnce(dip.NewInstance(inst.G), rng)
	if err != nil || !res.Accepted {
		t.Fatalf("honest run: accepted=%v err=%v", res != nil && res.Accepted, err)
	}
	vf := Verifier{P: p}
	allocs := testing.AllocsPerRun(10, func() {
		for _, view := range rec.views {
			if !vf.Decide(view) {
				t.Fatal("replayed view rejected")
			}
		}
	})
	if perNode := allocs / float64(len(rec.views)); perNode > 7 {
		t.Errorf("Decide allocates %.2f times per node, want <= 7 (pooled scratch)", perNode)
	}
}
