package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/graph"
)

// refRequest is Request with graph.edges and witness_pos as the plain
// slices encoding/json decodes by reflection, and no UnmarshalJSON: the
// reference decodeRequest must match.
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

// refBatch is BatchRequest over refRequest items.
type refBatch struct {
	Items           []refRequest `json:"items"`
	TimeoutMS       int64        `json:"timeout_ms,omitempty"`
	CancelOnAbandon bool         `json:"cancel_on_abandon,omitempty"`
}

// refOf converts a decoded Request to the reference shape.
func refOf(r *Request) refRequest {
	ref := refRequest{Protocol: r.Protocol, Seed: r.Seed, Gen: r.Gen, WitnessPos: r.WitnessPos, TimeoutMS: r.TimeoutMS}
	if r.Graph != nil {
		ref.Graph = &refGraph{N: r.Graph.N, Edges: r.Graph.Edges}
	}
	return ref
}

// decodeJSON decodes body as the certify handler used to: one
// json.Decoder value with unknown fields refused.
func decodeJSON(body string, v any) error {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// nested is a pair whose third element nests depth arrays, inside the
// four containers of {"graph":{"edges":[[...]]}}.
func nested(depth int) string {
	return `{"graph":{"n":3,"edges":[[0,1,` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `]]}}`
}

// requestDecodeSeeds are bodies covering encoding/json's quirks, each
// of which decodeRequest must reproduce.
var requestDecodeSeeds = []string{
	k4Req,
	`{"protocol":"pathouter","seed":4,"witness_pos":[0,1,2,3,4],"graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,2]]}}`,
	`{"protocol":"pls","gen":{"family":"pathouter","n":8,"seed":1},"witness_pos":[7,6,5,4,3,2,1,0]}`,
	`{"protocol":"sp","gen":{"family":"sp","n":8,"chord_prob":0.25,"delta":3,"seed":-2},"timeout_ms":500}`,
	// Only the first value is read.
	`{"protocol":"a"} garbage`,
	`{"protocol":"a"}]`,
	`{"protocol":"a"}{"seed":1}`,
	`null`,
	`nullx`,
	` 	null `,
	// Empty, truncated, and top-level values other than an object.
	``,
	" \t\r\n",
	`{`,
	`{"protocol"`,
	`{"protocol":`,
	`{"protocol":"a"`,
	`{"protocol":"a",}`,
	`nul`,
	`5`,
	`"x"`,
	`[]`,
	`true`,
	"\xef\xbb\xbf{}",
	`{}`,
	` { } `,
	// Keys: exact, case-folded, escaped; unknown at every level.
	`{"PROTOCOL":"a","Seed":2,"Graph":{"N":3,"EDGES":[[0,1]]},"WITNESS_POS":[0,1,2],"Timeout_MS":9}`,
	`{"ſeed":5}`,
	`{"\u0070rotocol":"planarity"}`,
	`{"tımeout_ms":1}`,
	`{"protocoll":"a"}`,
	`{"graph":{"n":3,"edges":[[0,1],[1,2]]},"edges":[[0,1]]}`,
	`{"graph":{"n":3,"edges":[[0,1],[1,2]],"extra":1}}`,
	`{"gen":{"family":"grid","n":9,"seed":1,"chordprob":0.5}}`,
	`{"":1}`,
	`{protocol:"a"}`,
	// Repeated keys: scalars and strings overwritten, objects merged,
	// null resets pointers but keeps scalars and strings.
	`{"protocol":"a","protocol":"b","seed":1,"seed":2}`,
	`{"protocol":"a","protocol":null,"seed":1,"seed":null,"timeout_ms":3,"timeout_ms":null}`,
	`{"graph":{"n":4,"edges":[[0,1]]},"graph":{"n":5}}`,
	`{"graph":{"n":4,"edges":[[0,1]]},"graph":null}`,
	`{"graph":{"n":4,"edges":[[0,1]]},"graph":null,"graph":{"n":2}}`,
	`{"gen":{"family":"grid","n":9,"chord_prob":0.5},"gen":{"seed":3}}`,
	`{"gen":{"family":"grid","n":9,"chord_prob":0.5},"gen":{"chord_prob":null}}`,
	`{"gen":{"family":"grid","n":9},"gen":null}`,
	`{"gen":{"family":"grid","family":null,"n":9,"n":null,"delta":2,"delta":null}}`,
	// Integers.
	`{"seed":-0,"timeout_ms":-0,"graph":{"n":-0}}`,
	`{"seed":9223372036854775807,"timeout_ms":-9223372036854775808}`,
	`{"seed":9223372036854775808}`,
	`{"seed":-9223372036854775809}`,
	`{"seed":99999999999999999999}`,
	`{"seed":1.0}`,
	`{"seed":1e2}`,
	`{"seed":1E2}`,
	`{"seed":"1"}`,
	`{"seed":true}`,
	`{"seed":[1]}`,
	`{"seed":{}}`,
	`{"seed":01}`,
	`{"seed":-01}`,
	`{"seed":00}`,
	`{"seed":-}`,
	`{"seed":+1}`,
	`{"seed":1x}`,
	`{"gen":{"n":1.5}}`,
	`{"gen":{"delta":"2"}}`,
	`{"gen":{"seed":-9223372036854775808}}`,
	// chord_prob: any number strconv.ParseFloat takes.
	`{"gen":{"chord_prob":5}}`,
	`{"gen":{"chord_prob":-0.0}}`,
	`{"gen":{"chord_prob":1E-2}}`,
	`{"gen":{"chord_prob":1e-400}}`,
	`{"gen":{"chord_prob":1e400}}`,
	`{"gen":{"chord_prob":-1e400}}`,
	`{"gen":{"chord_prob":0.}}`,
	`{"gen":{"chord_prob":.5}}`,
	`{"gen":{"chord_prob":1e}}`,
	`{"gen":{"chord_prob":1e+}}`,
	`{"gen":{"chord_prob":01.5}}`,
	`{"gen":{"chord_prob":"0.5"}}`,
	`{"gen":{"chord_prob":true}}`,
	// Strings.
	`{"protocol":"a\"b\\c\/d\be\ff\ng\rh\ti"}`,
	`{"protocol":"\u00e9\u4e16\ud83d\ude00"}`,
	`{"protocol":"\ud800"}`,
	`{"protocol":"\ud800x"}`,
	`{"protocol":"\udc00\ud800"}`,
	`{"protocol":"\ud800\u0041"}`,
	`{"protocol":"\ud800\u12"}`,
	`{"protocol":"\u12"}`,
	`{"protocol":"\u12G4"}`,
	`{"protocol":"\x"}`,
	`{"protocol":"\'"}`,
	"{\"protocol\":\"a\tb\"}",
	"{\"protocol\":\"a\x00b\"}",
	"{\"protocol\":\"a\xffb\xc3\"}",
	"{\"protocol\":\"\xed\xa0\x80\"}",
	"{\"protocol\":\"ok\xe4\xb8\x96\"}",
	`{"protocol":"a`,
	`{"protocol":"a\`,
	`{"family":5}`,
	`{"protocol":5}`,
	`{"protocol":["a"]}`,
	// Extra pair elements are checked and skipped, whatever they are; a
	// short pair zeroes the rest; null pairs and null elements decode
	// as zero into fresh storage.
	`{"graph":{"n":3,"edges":[[0,1,2],[1,2,"x",{"a":[1,"]"]},[3]]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,{"a":{"b":[true,false,null,-1.5e+3]},"c":"\u0041"},[],{}]]}}`,
	`{"graph":{"n":3,"edges":[[1],[],null,[null,2]]}}`,
	`{"graph":{"n":3,"edges":[ [ 0 , 1 ] ,[1,2]	]},"witness_pos":[ 2,1 ,0 ]}`,
	`{"graph":{"n":3,"edges":[[-0,1]]},"witness_pos":[-0,1,2]}`,
	// Skipped elements must be valid JSON.
	`{"graph":{"n":3,"edges":[[0,1,01]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,"\x"]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,tru]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,[1,]]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,{"a"}]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,{"a":}]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,{1:2}]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,[}]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,-]]}}`,
	`{"graph":{"n":3,"edges":[[0,1,1.]]}}`,
	"{\"graph\":{\"n\":3,\"edges\":[[0,1,\"a\x01\"]]}}",
	// Nesting: 4 containers plus the skipped element's own, at most
	// 10,000 in all.
	nested(9996),
	nested(9997),
	// Not integers within int's range: errors.
	`{"graph":{"n":3,"edges":[[1.0,2]]}}`,
	`{"graph":{"n":3,"edges":[[1e0,2]]}}`,
	`{"graph":{"n":3,"edges":[["1",2]]}}`,
	`{"graph":{"n":3,"edges":[[true,2]]}}`,
	`{"graph":{"n":3,"edges":[[[0],1]]}}`,
	`{"graph":{"n":3,"edges":[[{},1]]}}`,
	`{"graph":{"n":3,"edges":[[01,2]]}}`,
	`{"graph":{"n":3,"edges":[[9223372036854775807,-9223372036854775808]]}}`,
	`{"graph":{"n":3,"edges":[[9223372036854775808,2]]}}`,
	`{"graph":{"n":3,"edges":[[-9223372036854775809,2]]}}`,
	`{"graph":{"n":3,"edges":[[1,2]]},"witness_pos":[0.5]}`,
	`{"graph":{"n":3,"edges":[[1,2]]},"witness_pos":[[0]]}`,
	`{"graph":{"n":3,"edges":[[1,2]]},"witness_pos":[00]}`,
	`{"graph":{"n":3,"edges":[5]}}`,
	`{"graph":{"n":3,"edges":["x"]}}`,
	// The whole array: null gives nil, [] a fresh empty slice, and
	// anything else is an error.
	`{"graph":{"n":3,"edges":null},"witness_pos":null}`,
	`{"graph":{"n":3,"edges":[]},"witness_pos":[]}`,
	`{"graph":{"n":3,"edges":[ ]},"witness_pos":[	]}`,
	`{"graph":{"n":3,"edges":{}}}`,
	`{"graph":{"n":3,"edges":"[[0,1]]"}}`,
	`{"graph":{"n":3,"edges":7}}`,
	`{"graph":{"n":3,"edges":true}}`,
	`{"graph":{"n":3},"witness_pos":{"0":1}}`,
	`{"graph":[1]}`,
	`{"graph":"x"}`,
	`{"gen":5}`,
	// A repeated key decodes into the existing slice in place:
	// elements over what is there, null keeping it, and growth within
	// the old capacity bringing old elements back.
	`{"graph":{"n":3,"edges":[[0,1],[1,2]],"EDGES":[[2,0]]}}`,
	`{"graph":{"n":5,"edges":[[1,2],[3,4]],"edges":[null]}}`,
	`{"graph":{"n":10,"edges":[[1,2],[3,4]],"edges":[[7,8]],"edges":[[9,9],null]}}`,
	`{"graph":{"n":10,"edges":[[1,2],[3,4]],"edges":[[5,6]],"edges":[null,null,null]}}`,
	`{"graph":{"n":10,"edges":[[1,2],[3,4],[5,6]],"edges":[[7,8]],"edges":[null,null,null,null,null,null]}}`,
	`{"graph":{"n":10,"edges":[[1,2],[3,4]],"edges":[[null,7],[5]]}}`,
	`{"graph":{"n":3,"edges":[[0,1]],"edges":null,"edges":[null]}}`,
	`{"graph":{"n":3,"edges":[[0,1],[2,1]],"edges":[],"edges":[null]}}`,
	`{"witness_pos":[3,1],"witness_pos":[null,null,7],"Witness_Pos":[5]}`,
	// Malformed bodies.
	`{"graph":{"n":3,"edges":[[0,1],[1,2]]`,
	`{"graph":{"n":3,"edges":[[0,1],]}}`,
	`{"graph":{"n":3,"edges":[[0,1] [1,2]]}}`,
	`{"graph":{"n":3 "edges":[]}}`,
	`{"graph" {"n":3}}`,
	`{"seed":1,,"protocol":"a"}`,
}

// FuzzRequestDecode decodes each body three ways: with decodeRequest,
// as the certify handler does; into refRequest with encoding/json, the
// reference; and into Request with encoding/json, as batch items and
// replayed requests are decoded (through Request.UnmarshalJSON). All
// three must accept or all reject, with equal values. A batch whose
// items array, holding the body, appears twice must decode as the
// reference batch does: the second array decodes over the first. For an
// accepted inline body with a valid edge list, the request key must not
// depend on the order or the orientation of its edges, and must equal
// CanonicalKey's.
func FuzzRequestDecode(f *testing.F) {
	for _, body := range requestDecodeSeeds {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var got, via Request
		var want refRequest
		errGot := decodeRequest([]byte(body), &got)
		errWant := decodeJSON(body, &want)
		errVia := decodeJSON(body, &via)
		if (errGot == nil) != (errWant == nil) || (errVia == nil) != (errWant == nil) {
			t.Fatalf("%.200q: decodeRequest error %v, encoding/json error %v, via UnmarshalJSON %v", body, errGot, errWant, errVia)
		}
		twice := `{"items":[` + body + `],"items":[` + body + `]}`
		var batch BatchRequest
		var wantBatch refBatch
		errBatch, errWantBatch := decodeJSON(twice, &batch), decodeJSON(twice, &wantBatch)
		if (errBatch == nil) != (errWantBatch == nil) {
			t.Fatalf("%.200q: batch error %v, reference batch error %v", twice, errBatch, errWantBatch)
		}
		if errBatch == nil {
			items := make([]refRequest, len(batch.Items))
			for i := range batch.Items {
				items[i] = refOf(&batch.Items[i])
			}
			if !reflect.DeepEqual(items, wantBatch.Items) {
				t.Fatalf("%.200q:\n batch     %+v\n reference %+v", twice, items, wantBatch.Items)
			}
		}
		if errGot != nil {
			return
		}
		if conv := refOf(&got); !reflect.DeepEqual(conv, want) {
			t.Fatalf("%.200q:\n decodeRequest %+v %+v\n encoding/json %+v %+v", body, conv, conv.Graph, want, want.Graph)
		}
		if conv := refOf(&via); !reflect.DeepEqual(conv, want) {
			t.Fatalf("%.200q:\n via UnmarshalJSON %+v %+v\n encoding/json     %+v %+v", body, conv, conv.Graph, want, want.Graph)
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

// TestReadRequestLimit: the certify handler accepts a body exactly when
// a json.Decoder over the same http.MaxBytesReader decodes it, that is
// when the body's first value ends within the limit, whatever follows,
// however the body's bytes arrive.
func TestReadRequestLimit(t *testing.T) {
	const limit = 64
	value := `{"protocol":"planarity","seed":1}`
	bodies := []string{
		value,
		value + strings.Repeat(" ", 100),
		value + strings.Repeat("x", 100),
		strings.Repeat(" ", limit-len(value)) + value + "garbage",
		strings.Repeat(" ", limit-len(value)+1) + value,
		`{"protocol":"planarity",` + strings.Repeat(" ", limit) + `"seed":1}`,
		`{"protocol":"` + strings.Repeat("p", limit) + `"}`,
		`{"protocol":"}]\"{[","seed":1}` + strings.Repeat(" ", limit),
		`{"graph":{"n":2,"edges":[[0,1]]}}]` + strings.Repeat("}", limit),
		`null` + strings.Repeat(" ", limit),
		`nul`,
		`[]`,
		`{"seed":1`,
	}
	for _, body := range bodies {
		for _, oneByte := range []bool{false, true} {
			post := func() (http.ResponseWriter, *http.Request) {
				var src io.Reader = strings.NewReader(body)
				if oneByte {
					src = iotest.OneByteReader(src)
				}
				return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/certify", src)
			}
			var got Request
			w, r := post()
			errGot := readRequest(w, r, limit, &got)
			var want Request
			w, r = post()
			dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
			dec.DisallowUnknownFields()
			errWant := dec.Decode(&want)
			if (errGot == nil) != (errWant == nil) || errGot == nil && !reflect.DeepEqual(got, want) {
				t.Errorf("%d-byte body %.40q, one byte a read %v: readRequest %+v, %v; json.Decoder %+v, %v", len(body), body, oneByte, got, errGot, want, errWant)
			}
		}
	}
}

// TestReadRequestOpenBody: reading stops where the body's first value
// ends, so a client that sends a whole request and holds its body open
// until it has the answer gets one. The value arrives in pieces, one cut
// inside a string's escape.
func TestReadRequestOpenBody(t *testing.T) {
	for _, pieces := range [][]string{
		{`{"protocol":"plan\`, `"arity","graph":{"n":2,"edges":[[0,`, `1]]}}`},
		{`  nu`, `ll`},
		{`{"seed":1}] trailing`},
	} {
		pr, pw := io.Pipe()
		go func() {
			for _, s := range pieces {
				pw.Write([]byte(s))
			}
		}()
		var got Request
		done := make(chan error, 1)
		go func() {
			done <- readRequest(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/certify", pr), maxCertifyBody, &got)
		}()
		select {
		case err := <-done:
			var want Request
			if werr := json.Unmarshal([]byte(strings.TrimSuffix(strings.Join(pieces, ""), "] trailing")), &want); err != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("pieces %q: readRequest %+v, %v; want %+v, %v", pieces, got, err, want, werr)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("pieces %q: readRequest still reading a body whose value has ended", pieces)
		}
		pw.Close()
	}
}

// TestResponseBytes: writeResponse writes, for every outcome, exactly
// what json.Encoder.Encode writes for the per-call copy of a cached
// response, over random responses covering round stats, every
// omitempty field both ways, and strings that JSON escapes.
func TestResponseBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	strs := []string{"", "planarity", "<a&b>", "é世😀", "\u2028\x01\"\\", "\xff"}
	str := func() string { return strs[rng.Intn(len(strs))] }
	num := func() int {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Intn(1 << 20)
	}
	for i := 0; i < 5000; i++ {
		val := &Response{
			Protocol: str(), Key: str(), Nodes: num(), Edges: num(), Seed: rng.Int63() - rng.Int63(),
			Accepted: rng.Intn(2) == 0, ProverFailed: rng.Intn(2) == 0, Rounds: num(),
			ProofSizeBits: num(), TotalBits: num(), MaxCoinBits: num(), Fingerprint: str(),
		}
		if k := rng.Intn(4); k > 0 {
			for j := 0; j < k*k; j++ {
				val.RoundStats = append(val.RoundStats, RoundStat{Span: str(), Phase: str(), Round: num(), Min: num(), P50: num(), Max: num(), Sum: num()})
			}
		}
		e := &cacheEntry{val: val}
		for _, outcome := range []Outcome{Computed, Hit, Shared, Hit} {
			wall := rng.Int63n(1 << 40)
			out := *val
			out.CacheHit = outcome == Hit
			out.Shared = outcome == Shared
			out.WallNS = wall
			var want, got bytes.Buffer
			if err := json.NewEncoder(&want).Encode(&out); err != nil {
				t.Fatal(err)
			}
			writeResponse(&got, e, outcome, wall)
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("response %d, outcome %v:\n got  %s\n want %s", i, outcome, got.Bytes(), want.Bytes())
			}
		}
	}
}

// TestInlineSizeCheckedBeforeCanonicalizing: an inline graph that
// declares more than MaxNodes, or carries more than MaxEdges edges, is
// refused with 413 before its edge list is validated or sorted, so the
// self-loop in it is never reported.
func TestInlineSizeCheckedBeforeCanonicalizing(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNodes: 8, MaxEdges: 4})
	for _, body := range []string{
		`{"protocol":"planarity","graph":{"n":9,"edges":[[0,1],[2,2]]}}`,
		`{"protocol":"planarity","graph":{"n":8,"edges":[[0,1],[1,2],[2,3],[3,4],[5,5]]}}`,
	} {
		if resp, _ := postCertify(t, ts, body); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", body, resp.StatusCode)
		}
	}
	body := `{"protocol":"planarity","graph":{"n":8,"edges":[[0,1],[2,2]]}}`
	if resp, _ := postCertify(t, ts, body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
	}
}

func ExampleRequest_UnmarshalJSON() {
	var req Request
	err := json.Unmarshal([]byte(`{"protocol":"planarity","graph":{"n":3,"edges":[[0,1]]},"colour":"red"}`), &req)
	fmt.Println(err)
	// Output: unknown field "colour" at offset 56
}
