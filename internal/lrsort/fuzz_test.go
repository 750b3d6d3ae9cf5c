package lrsort

import (
	"fmt"
	"testing"

	"repro/internal/bitio"
)

func fuzzBits(data []byte) bitio.String {
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

// inPlace checks one in-place reader against the way composite labels
// read the same sub-label before: slice its width bits out of the
// caller's reader into a String of their own (width < 0: everything
// left) and decode that. Both start off bits into s; they must agree on
// the value and on whether an error occurs, and a successful in-place
// read of a fixed-width sub-label must leave the caller's reader just
// past it.
func inPlace[T comparable](t *testing.T, what string, s bitio.String, off, width int,
	read func(*bitio.Reader) (T, error), decode func(bitio.String) (T, error)) {
	t.Helper()
	r := s.Reader()
	readString(r, off)
	got, err := read(r)

	ref := s.Reader()
	readString(ref, off)
	exact := width >= 0
	if !exact {
		width = ref.Remaining()
	}
	var want T
	sub, refErr := readString(ref, width)
	if refErr == nil {
		want, refErr = decode(sub)
	}
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s at bit %d: error %v, reference error %v", what, off, err, refErr)
	}
	if err != nil {
		return
	}
	if got != want {
		t.Fatalf("%s at bit %d: got %+v, reference %+v", what, off, got, want)
	}
	if exact && r.Remaining() != ref.Remaining() {
		t.Fatalf("%s at bit %d: read %d bits, the sub-label has %d", what, off, s.Len()-off-r.Remaining(), width)
	}
}

// FuzzDecoders checks every in-place reader of this package on
// arbitrary bits at an arbitrary offset against the slice-then-decode
// oracle (see inPlace), and that no decoder panics: malformed labels
// surface as errors.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{}, uint16(2), uint8(0))
	f.Add([]byte{0x42}, uint16(100), uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(4096), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, off uint8) {
		if n < 2 {
			n = 2
		}
		p, err := NewParams(int(n))
		if err != nil {
			t.Skip()
		}
		s := fuzzBits(data)
		at := int(off) % (s.Len() + 1)
		b0 := p.F0Bits()
		inPlace(t, "r1 node", s, at, -1,
			func(r *bitio.Reader) (Round1Node, error) { return ReadRound1Node(r, p) },
			func(s bitio.String) (Round1Node, error) { return DecodeRound1Node(s, p) })
		inPlace(t, "r1 edge", s, at, 1+p.JBits,
			func(r *bitio.Reader) (Round1Edge, error) { return ReadRound1Edge(r, p) },
			func(s bitio.String) (Round1Edge, error) { return DecodeRound1Edge(s, p) })
		inPlace(t, "coins v1", s, at, 3*b0,
			func(r *bitio.Reader) (CoinsV1, error) { return ReadCoinsV1(r, p) },
			func(s bitio.String) (CoinsV1, error) { return DecodeCoinsV1(s, p) })
		inPlace(t, "r2 node", s, at, 7*b0,
			func(r *bitio.Reader) (Round2Node, error) { return ReadRound2Node(r, p) },
			func(s bitio.String) (Round2Node, error) { return DecodeRound2Node(s, p) })
		inPlace(t, "r2 edge", s, at, b0,
			func(r *bitio.Reader) (Round2Edge, error) { return ReadRound2Edge(r, p) },
			func(s bitio.String) (Round2Edge, error) { return DecodeRound2Edge(s, p) })
		_, _ = DecodeRound3Node(s, p)
		_, _ = DecodeCoinsV2(s, p)
	})
}
