package seriesparallel

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/forestcode"
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

// refDecodeStructR1 is decodeStructR1 as it was before it read the
// forest code in place: the code's bits are sliced out into a String of
// their own and decoded there. It is the oracle the in-place decoder
// must agree with.
func refDecodeStructR1(s bitio.String) (structR1, error) {
	r := s.Reader()
	if r.Remaining() < forestcode.LabelBits {
		return structR1{}, bitio.ErrShortRead
	}
	var w bitio.Writer
	v, _ := r.ReadUint(forestcode.LabelBits)
	w.WriteUint(v, forestcode.LabelBits)
	fc, err := forestcode.DecodeLabel(w.String())
	if err != nil {
		return structR1{}, err
	}
	inP1, err := r.ReadBool()
	if err != nil {
		return structR1{}, err
	}
	return structR1{FC: fc, InP1: inP1}, nil
}

// FuzzDecoders checks the structural label decoders on arbitrary bits:
// decodeStructR1 agrees with its oracle on the value and on whether an
// error occurs, and no decoder panics — malformed labels surface as
// errors the verifier turns into rejection.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{0x00}, uint16(64), uint8(0))
	f.Add([]byte{0xff, 0x13, 0x77}, uint16(1000), uint8(3))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}, uint16(65535), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, drop uint8) {
		p := NewParams(int(n))
		s := bytesToBits(data, drop)
		l, err := decodeStructR1(s)
		ref, refErr := refDecodeStructR1(s)
		if (err == nil) != (refErr == nil) || l != ref {
			t.Fatalf("r1 of %s: got %+v (%v), reference %+v (%v)", s, l, err, ref, refErr)
		}
		_, _ = decodeStructEdge1(s)
		_, _ = decodeStructCoin(s, p)
		_, _ = decodeStructR2(s, p)
		_, _ = decodeStructEdge2(s, p)
	})
}
