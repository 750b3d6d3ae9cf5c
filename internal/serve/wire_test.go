package serve

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// refRequest is Request with graph.edges and witness_pos as the plain
// slices encoding/json decodes by reflection: the reference the
// hand-parsed arrays must match.
type refRequest struct {
	Protocol   string       `json:"protocol"`
	Seed       int64        `json:"seed"`
	Graph      *refGraph    `json:"graph,omitempty"`
	Gen        *GenSpecJSON `json:"gen,omitempty"`
	WitnessPos []int        `json:"witness_pos,omitempty"`
	TimeoutMS  int64        `json:"timeout_ms,omitempty"`
}

type refGraph struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// decodeBody decodes body as the certify handler does.
func decodeBody(body string, v any) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// requestDecodeSeeds are bodies covering encoding/json's slice and
// array quirks, each of which the hand-parsed arrays must reproduce.
var requestDecodeSeeds = []string{
	k4Req,
	`{"protocol":"pathouter","seed":4,"witness_pos":[0,1,2,3,4],"graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,2]]}}`,
	`{"protocol":"pls","gen":{"family":"pathouter","n":8,"seed":1},"witness_pos":[7,6,5,4,3,2,1,0]}`,
	// Extra elements are dropped unread, whatever they are; a short
	// pair zeroes the rest; null pairs and null elements decode as
	// zero into fresh storage.
	`{"graph":{"n":3,"edges":[[0,1,2],[1,2,"x",{"a":[1,"]"]},[3]]]}}`,
	`{"graph":{"n":3,"edges":[[1],[],null,[null,2]]}}`,
	`{"graph":{"n":3,"edges":[ [ 0 , 1 ] ,[1,2]	]},"witness_pos":[ 2,1 ,0 ]}`,
	`{"graph":{"n":3,"edges":[[-0,1]]},"witness_pos":[-0,1,2]}`,
	// Not integers within int's range: errors.
	`{"graph":{"n":3,"edges":[[1.0,2]]}}`,
	`{"graph":{"n":3,"edges":[[1e0,2]]}}`,
	`{"graph":{"n":3,"edges":[["1",2]]}}`,
	`{"graph":{"n":3,"edges":[[true,2]]}}`,
	`{"graph":{"n":3,"edges":[[[0],1]]}}`,
	`{"graph":{"n":3,"edges":[[{},1]]}}`,
	`{"graph":{"n":3,"edges":[[9223372036854775807,-9223372036854775808]]}}`,
	`{"graph":{"n":3,"edges":[[9223372036854775808,2]]}}`,
	`{"graph":{"n":3,"edges":[[-9223372036854775809,2]]}}`,
	`{"graph":{"n":3,"edges":[[1,2]]},"witness_pos":[0.5]}`,
	`{"graph":{"n":3,"edges":[[1,2]]},"witness_pos":[[0]]}`,
	`{"graph":{"n":3,"edges":[5]}}`,
	`{"graph":{"n":3,"edges":["x"]}}`,
	// The whole array: null gives nil, [] a fresh empty slice, and
	// anything else is an error.
	`{"graph":{"n":3,"edges":null},"witness_pos":null}`,
	`{"graph":{"n":3,"edges":[]},"witness_pos":[]}`,
	`{"graph":{"n":3,"edges":{}}}`,
	`{"graph":{"n":3,"edges":"[[0,1]]"}}`,
	`{"graph":{"n":3,"edges":7}}`,
	`{"graph":{"n":3,"edges":true}}`,
	`{"graph":{"n":3},"witness_pos":{"0":1}}`,
	// A repeated key decodes into the existing slice in place:
	// elements over what is there, null keeping it, and growth within
	// the old capacity bringing old elements back.
	`{"graph":{"n":3,"edges":[[0,1],[1,2]],"EDGES":[[2,0]]}}`,
	`{"graph":{"n":5,"edges":[[1,2],[3,4]],"edges":[null]}}`,
	`{"graph":{"n":10,"edges":[[1,2],[3,4]],"edges":[[7,8]],"edges":[[9,9],null]}}`,
	`{"graph":{"n":10,"edges":[[1,2],[3,4]],"edges":[[5,6]],"edges":[null,null,null]}}`,
	`{"graph":{"n":10,"edges":[[1,2],[3,4]],"edges":[[null,7],[5]]}}`,
	`{"graph":{"n":3,"edges":[[0,1]],"edges":null,"edges":[null]}}`,
	`{"graph":{"n":3,"edges":[[0,1],[2,1]],"edges":[],"edges":[null]}}`,
	`{"witness_pos":[3,1],"witness_pos":[null,null,7],"Witness_Pos":[5]}`,
	// A second graph object merges into the first, which keeps its
	// edges.
	`{"graph":{"n":4,"edges":[[0,1]]},"graph":{"n":5}}`,
	`{"graph":{"n":4,"edges":[[0,1]]},"graph":null}`,
	// Unknown fields and malformed bodies.
	`{"graph":{"n":3,"edges":[[0,1],[1,2]]},"edges":[[0,1]]}`,
	`{"graph":{"n":3,"edges":[[0,1],[1,2]],"extra":1}}`,
	`{"graph":{"n":3,"edges":[[0,1],[1,2]]`,
	`{"graph":{"n":3,"edges":[[0,1],]}}`,
}

// FuzzRequestDecode decodes each body into Request and into refRequest,
// both as the certify handler decodes: both must accept or both
// reject, with equal values. For an accepted inline body with a valid
// edge list, the request key must not depend on the order or the
// orientation of its edges, and must equal CanonicalKey's.
func FuzzRequestDecode(f *testing.F) {
	for _, body := range requestDecodeSeeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var got Request
		var want refRequest
		errGot, errWant := decodeBody(body, &got), decodeBody(body, &want)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%q: hand-parsed error %v, encoding/json error %v", body, errGot, errWant)
		}
		if errGot != nil {
			return
		}
		conv := refRequest{Protocol: got.Protocol, Seed: got.Seed, Gen: got.Gen, WitnessPos: got.WitnessPos, TimeoutMS: got.TimeoutMS}
		if got.Graph != nil {
			conv.Graph = &refGraph{N: got.Graph.N, Edges: got.Graph.Edges}
		}
		if !reflect.DeepEqual(conv, want) {
			t.Fatalf("%q:\n hand-parsed   %+v %+v\n encoding/json %+v %+v", body, conv, conv.Graph, want, want.Graph)
		}

		if got.Graph == nil || got.Gen != nil {
			return
		}
		n := got.Graph.N
		canon, err := canonEdges(n, got.Graph.Edges)
		if err != nil {
			return
		}
		key := keyFromCanon(got.Protocol, got.Seed, n, canon, got.WitnessPos, nil)
		rng := rand.New(rand.NewSource(int64(len(body))))
		edges := make([]graph.Edge, len(got.Graph.Edges))
		moved := make([][2]int, len(edges))
		for i, e := range got.Graph.Edges {
			edges[i] = graph.Edge{U: e[0], V: e[1]}
			if rng.Intn(2) == 0 {
				e[0], e[1] = e[1], e[0]
			}
			moved[i] = e
		}
		rng.Shuffle(len(moved), func(i, j int) { moved[i], moved[j] = moved[j], moved[i] })
		canon2, err := canonEdges(n, moved)
		if err != nil {
			t.Fatalf("%q: reordered edges rejected: %v", body, err)
		}
		if key2 := keyFromCanon(got.Protocol, got.Seed, n, canon2, got.WitnessPos, nil); key2 != key {
			t.Fatalf("%q: key %s after reordering, %s before", body, key2, key)
		}
		if ck := CanonicalKey(got.Protocol, got.Seed, n, edges, got.WitnessPos, nil); ck != key {
			t.Fatalf("%q: CanonicalKey %s, inline key %s", body, ck, key)
		}
	})
}
