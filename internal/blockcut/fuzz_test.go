package blockcut

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/forestcode"
	"repro/internal/graph"
	"repro/internal/spantree"
)

// bytesToBits converts fuzz input into a bit string.
func bytesToBits(data []byte) bitio.String {
	var w bitio.Writer
	for _, b := range data {
		w.WriteUint(uint64(b), 8)
	}
	return w.String()
}

// readString slices the next n bits of r out as a String, as the
// removed bitio.Reader.ReadString did: ErrShortRead past the end.
func readString(r *bitio.Reader, n int) (bitio.String, error) {
	if n < 0 {
		return bitio.String{}, fmt.Errorf("bitio: invalid length %d", n)
	}
	if n > r.Remaining() {
		return bitio.String{}, bitio.ErrShortRead
	}
	var w bitio.Writer
	for ; n > 0; n -= 64 {
		k := min(n, 64)
		v, _ := r.ReadUint(k)
		w.WriteUint(v, k)
	}
	return w.String(), nil
}

// prefix returns the first n bits of s.
func prefix(t *testing.T, s bitio.String, n int) bitio.String {
	t.Helper()
	head, err := readString(s.Reader(), n)
	if err != nil {
		t.Fatalf("prefix of %d bits from %d: %v", n, s.Len(), err)
	}
	return head
}

// The structural decoders as they were before they read their embedded
// sub-labels in place: the forest code and the spanning-tree fields are
// sliced out into Strings of their own and decoded there. They are the
// oracle the in-place decoders must agree with.

func refDecodeStructR1(s bitio.String) (structR1, error) {
	r := s.Reader()
	fcBits, err := readString(r, forestcode.LabelBits)
	if err != nil {
		return structR1{}, err
	}
	fc, err := forestcode.DecodeLabel(fcBits)
	if err != nil {
		return structR1{}, err
	}
	cut, err := r.ReadBool()
	if err != nil {
		return structR1{}, err
	}
	lead, err := r.ReadBool()
	if err != nil {
		return structR1{}, err
	}
	return structR1{FC: fc, Cut: cut, Leader: lead}, nil
}

func refDecodeStructCoin(s bitio.String, p Params) (structCoin, error) {
	r := s.Reader()
	sv, err := r.ReadUint(p.L)
	if err != nil {
		return structCoin{}, err
	}
	stBits, err := readString(r, p.ST.Reps+p.ST.IDBits)
	if err != nil {
		return structCoin{}, err
	}
	st, err := spantree.DecodeCoin(stBits, p.ST)
	if err != nil {
		return structCoin{}, err
	}
	return structCoin{S: sv, ST: st}, nil
}

func refDecodeStructR2(s bitio.String, p Params) (structR2, error) {
	r := s.Reader()
	var l structR2
	var err error
	if l.Self, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	if l.Sep, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	if l.Lead, err = r.ReadUint(p.L); err != nil {
		return l, err
	}
	stBits, err := readString(r, p.ST.Reps+p.ST.IDBits)
	if err != nil {
		return l, err
	}
	if l.ST, err = spantree.DecodeSum(stBits, p.ST); err != nil {
		return l, err
	}
	return l, nil
}

// agree fails t unless a decoder and its oracle returned the same value
// and either both or neither failed.
func agree[T comparable](t *testing.T, what string, got T, err error, want T, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) || got != want {
		t.Fatalf("%s: got %+v (%v), reference %+v (%v)", what, got, err, want, refErr)
	}
}

// FuzzDecoders checks the structural label decoders on arbitrary bits:
// they agree with the oracle above on the value and on whether an error
// occurs, they never panic (malformed labels surface as errors the
// verifier turns into rejection), and a label that decodes encodes back
// to the bits it was read from and decodes again to itself.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{0x00}, uint16(64))
	f.Add([]byte{0xff, 0x13, 0x77}, uint16(1000))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}, uint16(65535))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		p := NewParams(int(n))
		s := bytesToBits(data)
		{
			l, err := decodeStructR1(s)
			ref, refErr := refDecodeStructR1(s)
			agree(t, "r1", l, err, ref, refErr)
			c, err := decodeStructCoin(s, p)
			refC, refErr := refDecodeStructCoin(s, p)
			agree(t, "coin", c, err, refC, refErr)
			l2, err := decodeStructR2(s, p)
			ref2, refErr := refDecodeStructR2(s, p)
			agree(t, "r2", l2, err, ref2, refErr)
		}
		if l, err := decodeStructR1(s); err == nil {
			enc := l.encode()
			if !enc.Equal(prefix(t, s, enc.Len())) {
				t.Fatalf("r1 %+v encodes to %s, read from %s", l, enc, s)
			}
			if back, err := decodeStructR1(enc); err != nil || back != l {
				t.Fatalf("r1 %+v round-trips to %+v, %v", l, back, err)
			}
		}
		if c, err := decodeStructCoin(s, p); err == nil {
			enc := c.encode(p)
			if !enc.Equal(prefix(t, s, enc.Len())) {
				t.Fatalf("coin %+v encodes to %s, read from %s", c, enc, s)
			}
			if back, err := decodeStructCoin(enc, p); err != nil || back != c {
				t.Fatalf("coin %+v round-trips to %+v, %v", c, back, err)
			}
		}
		if l, err := decodeStructR2(s, p); err == nil {
			enc := l.encode(p)
			if !enc.Equal(prefix(t, s, enc.Len())) {
				t.Fatalf("r2 %+v encodes to %s, read from %s", l, enc, s)
			}
			if back, err := decodeStructR2(enc, p); err != nil || back != l {
				t.Fatalf("r2 %+v round-trips to %+v, %v", l, back, err)
			}
		}
	})
}

// refInduced is Induced one block at a time, as it was before it built
// every block in one pass: a scan of all edges per block. It is the
// oracle the one-pass form must agree with.
func refInduced(verts []int, edges []graph.Edge) *graph.Graph {
	idx := make(map[int]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	h := graph.New(len(verts))
	for _, e := range edges {
		iu, okU := idx[e.U]
		iv, okV := idx[e.V]
		if okU && okV {
			h.MustAddEdge(iu, iv)
		}
	}
	return h
}

// FuzzInduced checks the one-pass Induced against refInduced on small
// random graphs and random plans: blocks that overlap in any number of
// vertices, vertices listed twice, and vertices outside the graph. The
// graph's edges are the pairs of edgeData, in that order; planData
// lists block vertices, a byte of 0xff starting the next block.
func FuzzInduced(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 5, 3}, []byte{0, 1, 2, 0xff, 2, 3, 4, 5})
	f.Add(uint8(5), []byte{4, 0, 0, 1, 1, 2, 2, 3, 3, 4, 1, 3}, []byte{1, 2, 3, 1, 0xff, 0xff, 0, 4, 3, 7, 8, 0xff, 3, 1, 4})
	f.Add(uint8(1), []byte{}, []byte{0, 0, 0xff})
	f.Fuzz(func(t *testing.T, size uint8, edgeData, planData []byte) {
		n := 1 + int(size)%12
		g := graph.New(n)
		for i := 0; i+1 < len(edgeData); i += 2 {
			g.AddEdge(int(edgeData[i])%n, int(edgeData[i+1])%n) // self-loops and repeats are refused
		}
		blocks := [][]int{nil}
		for _, b := range planData {
			if b == 0xff {
				blocks = append(blocks, nil)
				continue
			}
			last := len(blocks) - 1
			blocks[last] = append(blocks[last], int(b)%(n+4)-2) // includes -2, -1, n and n+1
		}
		got := Induced(n, blocks, g.Edges())
		if len(got) != len(blocks) {
			t.Fatalf("%d subgraphs for %d blocks", len(got), len(blocks))
		}
		for c, verts := range blocks {
			want := refInduced(verts, g.Edges())
			if got[c].N() != want.N() || !slices.Equal(got[c].Edges(), want.Edges()) {
				t.Fatalf("block %d %v: got n=%d %v, want n=%d %v", c, verts, got[c].N(), got[c].Edges(), want.N(), want.Edges())
			}
			for v := range want.N() {
				if !slices.Equal(got[c].Neighbors(v), want.Neighbors(v)) {
					t.Fatalf("block %d %v: vertex %d ports %v, want %v", c, verts, v, got[c].Neighbors(v), want.Neighbors(v))
				}
			}
		}
	})
}
