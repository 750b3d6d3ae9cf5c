package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gen"
)

// BenchmarkServeThroughput measures the in-process request path —
// JSON decode, canonical hash, cache, pool dispatch, JSON encode —
// with no network stack. The CacheHit cases replay one request so every
// iteration after the first is served from the LRU store: a K4, whose
// cost is mostly fixed overhead; a 1,000-node path-outerplanar body
// with its witness_pos, whose cost is decoding and sorting; and a
// 250-node treewidth2 body, whose cached response carries about 1,500
// round stats. Miss cycles seeds so every iteration runs the protocol.
func BenchmarkServeThroughput(b *testing.B) {
	bench := func(b *testing.B, body func(i int) string) {
		s, err := New(Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := httptest.NewRequest(http.MethodPost, "/certify", strings.NewReader(body(i)))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	}
	b.Run("CacheHit", func(b *testing.B) {
		bench(b, func(int) string { return k4Req })
	})
	for _, c := range []struct {
		name, protocol, family string
		n                      int
		witness                bool
	}{
		{"CacheHitPathouter1000", "pathouter", "pathouter", 1000, true},
		{"CacheHitTreewidth2_250", "treewidth2", "treewidth2", 250, false},
	} {
		body := inlineBody(b, c.protocol, c.family, c.n, c.witness)
		b.Run(c.name, func(b *testing.B) {
			bench(b, func(int) string { return body })
		})
	}
	b.Run("Miss", func(b *testing.B) {
		bench(b, func(i int) string {
			return fmt.Sprintf(
				`{"protocol":"planarity","seed":%d,"graph":{"n":4,"edges":[[0,1],[0,2],[0,3],[1,2],[1,3],[2,3]]}}`, i)
		})
	})
}

// inlineBody returns an inline certify body for protocol on family's
// instance of n nodes, with the generator's path witness if witness.
func inlineBody(tb testing.TB, protocol, family string, n int, witness bool) string {
	tb.Helper()
	spec := gen.FamilySpec{Family: family, N: n, ChordProb: -1}
	g, pos, _, err := spec.BuildWitnessed(rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	req := Request{Protocol: protocol, Seed: 1, Graph: &GraphJSON{N: g.N()}}
	for _, e := range g.Edges() {
		req.Graph.Edges = append(req.Graph.Edges, [2]int{e.U, e.V})
	}
	if witness {
		req.WitnessPos = pos
	}
	b, err := json.Marshal(&req)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}
