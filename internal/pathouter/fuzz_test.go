package pathouter

import (
	"fmt"
	"testing"

	"repro/internal/bitio"
	"repro/internal/forestcode"
	"repro/internal/lrsort"
	"repro/internal/spantree"
)

// bytesToBits converts fuzz input into a bit string, dropping the last
// drop%8 bits so that labels of every length, truncated ones included,
// come up.
func bytesToBits(data []byte, drop uint8) bitio.String {
	var w bitio.Writer
	for i, b := range data {
		width := 8
		if i == len(data)-1 {
			width -= int(drop % 8)
		}
		w.WriteUint(uint64(b)>>uint(8-width), width)
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

// The decoders as they were before they read their embedded sub-labels
// in place: each sub-label is sliced out into a String of its own and
// decoded by its package's decoder. They are the oracle the in-place
// decoders must agree with.

func refDecodeRound1Node(s bitio.String, p Params) (Round1Node, error) {
	r := s.Reader()
	fcBits, err := readString(r, forestcode.LabelBits)
	if err != nil {
		return Round1Node{}, err
	}
	fc, err := forestcode.DecodeLabel(fcBits)
	if err != nil {
		return Round1Node{}, err
	}
	rest, err := readString(r, r.Remaining())
	if err != nil {
		return Round1Node{}, err
	}
	lr, err := lrsort.DecodeRound1Node(rest, p.LR)
	if err != nil {
		return Round1Node{}, err
	}
	return Round1Node{FC: fc, LR: lr}, nil
}

func refDecodeRound1Edge(s bitio.String, p Params) (Round1Edge, error) {
	r := s.Reader()
	t, err := r.ReadBool()
	if err != nil {
		return Round1Edge{}, err
	}
	lrBits, err := readString(r, 1+p.LR.JBits)
	if err != nil {
		return Round1Edge{}, err
	}
	lr, err := lrsort.DecodeRound1Edge(lrBits, p.LR)
	if err != nil {
		return Round1Edge{}, err
	}
	ltr, err := r.ReadBool()
	if err != nil {
		return Round1Edge{}, err
	}
	lhl, err := r.ReadBool()
	if err != nil {
		return Round1Edge{}, err
	}
	return Round1Edge{TailIsCanonU: t, LR: lr, LongestTailRight: ltr, LongestHeadLeft: lhl}, nil
}

func refDecodeCoinsV1(s bitio.String, p Params) (CoinsV1, error) {
	r := s.Reader()
	stBits, err := readString(r, p.ST.Reps+p.ST.IDBits)
	if err != nil {
		return CoinsV1{}, err
	}
	st, err := spantree.DecodeCoin(stBits, p.ST)
	if err != nil {
		return CoinsV1{}, err
	}
	lrBits, err := readString(r, 3*p.LR.F0Bits())
	if err != nil {
		return CoinsV1{}, err
	}
	lr, err := lrsort.DecodeCoinsV1(lrBits, p.LR)
	if err != nil {
		return CoinsV1{}, err
	}
	nm, err := r.ReadUint(p.NameBits())
	if err != nil {
		return CoinsV1{}, err
	}
	return CoinsV1{ST: st, LR: lr, Name: nm}, nil
}

func refDecodeRound2Node(s bitio.String, p Params) (Round2Node, error) {
	r := s.Reader()
	stBits, err := readString(r, p.ST.Reps+p.ST.IDBits)
	if err != nil {
		return Round2Node{}, err
	}
	st, err := spantree.DecodeSum(stBits, p.ST)
	if err != nil {
		return Round2Node{}, err
	}
	lrBits, err := readString(r, 7*p.LR.F0Bits())
	if err != nil {
		return Round2Node{}, err
	}
	lr, err := lrsort.DecodeRound2Node(lrBits, p.LR)
	if err != nil {
		return Round2Node{}, err
	}
	hr, err := r.ReadBool()
	if err != nil {
		return Round2Node{}, err
	}
	hl, err := r.ReadBool()
	if err != nil {
		return Round2Node{}, err
	}
	ab, err := decodeName(r, p)
	if err != nil {
		return Round2Node{}, err
	}
	return Round2Node{ST: st, LR: lr, HasRightEdges: hr, HasLeftEdges: hl, Above: ab}, nil
}

func refDecodeRound2Edge(s bitio.String, p Params) (Round2Edge, error) {
	r := s.Reader()
	lrBits, err := readString(r, p.LR.F0Bits())
	if err != nil {
		return Round2Edge{}, err
	}
	lr, err := lrsort.DecodeRound2Edge(lrBits, p.LR)
	if err != nil {
		return Round2Edge{}, err
	}
	nm, err := decodeName(r, p)
	if err != nil {
		return Round2Edge{}, err
	}
	sc, err := decodeName(r, p)
	if err != nil {
		return Round2Edge{}, err
	}
	return Round2Edge{LR: lr, Name: nm, Succ: sc}, nil
}

// agree fails t unless a decoder and its oracle returned the same value
// and either both or neither failed.
func agree[T comparable](t *testing.T, what string, got T, err error, want T, refErr error) {
	t.Helper()
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: error %v, reference error %v", what, err, refErr)
	}
	if got != want {
		t.Fatalf("%s: got %+v, reference %+v", what, got, want)
	}
}

// FuzzDecoders checks every label decoder on arbitrary bits against the
// oracle above: the same value and the same error outcome, which also
// means no panic — malformed labels surface as errors the verifier
// turns into rejection.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{0x00}, uint16(64), uint8(0))
	f.Add([]byte{0xff, 0x13, 0x77}, uint16(1000), uint8(3))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}, uint16(65535), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, drop uint8) {
		if n < 2 {
			n = 2
		}
		p, err := NewParams(int(n))
		if err != nil {
			t.Skip()
		}
		s := bytesToBits(data, drop)
		r1, err := DecodeRound1Node(s, p)
		ref1, refErr := refDecodeRound1Node(s, p)
		agree(t, "r1 node", r1, err, ref1, refErr)
		e1, err := DecodeRound1Edge(s, p)
		refE1, refErr := refDecodeRound1Edge(s, p)
		agree(t, "r1 edge", e1, err, refE1, refErr)
		r2, err := DecodeRound2Node(s, p)
		ref2, refErr := refDecodeRound2Node(s, p)
		agree(t, "r2 node", r2, err, ref2, refErr)
		e2, err := DecodeRound2Edge(s, p)
		refE2, refErr := refDecodeRound2Edge(s, p)
		agree(t, "r2 edge", e2, err, refE2, refErr)
		c1, err := DecodeCoinsV1(s, p)
		refC1, refErr := refDecodeCoinsV1(s, p)
		agree(t, "coins", c1, err, refC1, refErr)
	})
}
