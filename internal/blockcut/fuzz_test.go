package blockcut

import (
	"testing"

	"repro/internal/bitio"
)

// bytesToBits converts fuzz input into a bit string.
func bytesToBits(data []byte) bitio.String {
	var w bitio.Writer
	for _, b := range data {
		w.WriteUint(uint64(b), 8)
	}
	return w.String()
}

// prefix returns the first n bits of s.
func prefix(t *testing.T, s bitio.String, n int) bitio.String {
	t.Helper()
	head, err := s.Reader().ReadString(n)
	if err != nil {
		t.Fatalf("prefix of %d bits from %d: %v", n, s.Len(), err)
	}
	return head
}

// FuzzDecoders checks the structural label decoders on arbitrary bits:
// they never panic (malformed labels surface as errors the verifier
// turns into rejection), and a label that decodes encodes back to the
// bits it was read from and decodes again to itself.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{0x00}, uint16(64))
	f.Add([]byte{0xff, 0x13, 0x77}, uint16(1000))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}, uint16(65535))
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		p := NewParams(int(n))
		s := bytesToBits(data)
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
