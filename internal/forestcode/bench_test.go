package forestcode

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func BenchmarkEncodeForest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := gen.Triangulation(rng, 1000)
	tree, err := graph.BFSTree(inst.G, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeForest(inst.G, tree.Parent); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	inst := gen.Triangulation(rng, 1000)
	tree, _ := graph.BFSTree(inst.G, 0)
	labels, err := EncodeForest(inst.G, tree.Parent)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 0; v < inst.G.N(); v++ {
			nbr := make([]Label, inst.G.Degree(v))
			for p, u := range inst.G.Neighbors(v) {
				nbr[p] = labels[u]
			}
			if _, err := Decode(labels[v], nbr, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
