package bitio

import (
	"encoding/binary"
	"testing"
)

// refWriter and refReader are the bit-at-a-time codec the word-at-a-time
// Writer and Reader replaced, kept as the differential oracle: one bit
// per step into a byte slice, and strings concatenated bit by bit.
type refWriter struct {
	buf  []byte
	nbit int
}

func (w *refWriter) WriteBit(b bool) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[w.nbit/8] |= 1 << (7 - uint(w.nbit%8))
	}
	w.nbit++
}

func (w *refWriter) WriteUint(v uint64, width int) {
	for i := width - 1; i >= 0; i-- {
		w.WriteBit(v>>uint(i)&1 == 1)
	}
}

func (w *refWriter) WriteString(s String) {
	for i := 0; i < s.Len(); i++ {
		w.WriteBit(s.Bit(i))
	}
}

func (w *refWriter) String() String {
	if w.nbit <= inlineBits {
		var word uint64
		for i, b := range w.buf {
			word |= uint64(b) << (56 - 8*uint(i))
		}
		return String{word: word, nbit: w.nbit}
	}
	cp := make([]byte, len(w.buf))
	copy(cp, w.buf)
	return String{data: cp, nbit: w.nbit}
}

type refReader struct {
	s   String
	pos int
}

func (r *refReader) Remaining() int { return r.s.Len() - r.pos }

func (r *refReader) ReadBit() (bool, error) {
	if r.pos >= r.s.Len() {
		return false, ErrShortRead
	}
	b := r.s.Bit(r.pos)
	r.pos++
	return b, nil
}

func (r *refReader) ReadUint(width int) (uint64, error) {
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v <<= 1
		if b {
			v |= 1
		}
	}
	return v, nil
}

// ops decodes fuzz bytes into operation parameters; exhausted input
// reads as zeros.
type ops struct{ data []byte }

func (o *ops) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *ops) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], o.data)
	o.data = o.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// width draws a field width in 0..64.
func (o *ops) width() int { return int(o.byte()) % 65 }

// length draws a string length in 0..143: both sides of the 64/65-bit
// inline/spill boundary, and past a second word.
func (o *ops) length() int { return int(o.byte()) % 144 }

// sameString fails t unless got and want carry the same bits in the
// same canonical form.
func sameString(t *testing.T, what string, got, want String) {
	t.Helper()
	if got.Len() != want.Len() || got.String() != want.String() {
		t.Fatalf("%s: got %d bits %q, want %d bits %q", what, got.Len(), got.String(), want.Len(), want.String())
	}
	if !got.Equal(want) || !want.Equal(got) {
		t.Fatalf("%s: Equal disagrees with the bits %q", what, want.String())
	}
	if inline := got.Len() <= inlineBits; inline != (got.data == nil) {
		t.Fatalf("%s: %d-bit string not in canonical form (data=%v)", what, got.Len(), got.data)
	}
}

// FuzzCodec checks the word-at-a-time codec against the bit-at-a-time
// reference: a random sequence of WriteBit, WriteUint and WriteString
// must produce the same bits, and a random sequence of ReadBit and
// ReadUint over them — over-reads included — the same values, errors
// and Remaining.
func FuzzCodec(f *testing.F) {
	f.Add([]byte{1, 64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 1}, []byte{1, 64, 0, 1})
	f.Add([]byte{2, 65, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5, 0xa5}, []byte{2, 64, 2, 1, 0})
	f.Add([]byte{0, 1, 1, 7, 0x7f, 2, 130, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, []byte{1, 3, 2, 140, 2, 5})
	f.Add([]byte{2, 64, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 2, 65, 1}, []byte{0, 2, 129, 1, 9})
	f.Fuzz(func(t *testing.T, writes, reads []byte) {
		var got Writer
		var want refWriter
		// Snapshots taken mid-stream must not change as writing goes on.
		var snaps, refSnaps []String
		in := ops{writes}
		for len(in.data) > 0 {
			switch in.byte() % 3 {
			case 0:
				b := in.byte()&1 == 1
				got.WriteBit(b)
				want.WriteBit(b)
			case 1:
				width := in.width()
				v := in.uint64()
				if width < 64 {
					v &= 1<<uint(width) - 1
				}
				got.WriteUint(v, width)
				want.WriteUint(v, width)
			case 2:
				var src refWriter
				for n := in.length(); n > 0; n -= 8 {
					src.WriteUint(uint64(in.byte())>>uint(max(8-n, 0)), min(n, 8))
				}
				s := src.String()
				got.WriteString(s)
				want.WriteString(s)
			}
			if got.Len() != want.nbit {
				t.Fatalf("Len %d, reference %d", got.Len(), want.nbit)
			}
			snaps, refSnaps = append(snaps, got.String()), append(refSnaps, want.String())
		}
		s, ref := got.String(), want.String()
		sameString(t, "written", s, ref)
		for i := range snaps {
			sameString(t, "snapshot", snaps[i], refSnaps[i])
		}

		r, rr := s.Reader(), &refReader{s: ref}
		in = ops{reads}
		for len(in.data) > 0 {
			var err, refErr error
			switch in.byte() % 2 {
			case 0:
				var b, rb bool
				b, err = r.ReadBit()
				rb, refErr = rr.ReadBit()
				if b != rb {
					t.Fatalf("ReadBit %v, reference %v", b, rb)
				}
			case 1:
				width := in.width()
				var v, rv uint64
				v, err = r.ReadUint(width)
				rv, refErr = rr.ReadUint(width)
				if v != rv {
					t.Fatalf("ReadUint(%d) = %d, reference %d", width, v, rv)
				}
			}
			if err != refErr {
				t.Fatalf("error %v, reference %v", err, refErr)
			}
			if r.Remaining() != rr.Remaining() {
				t.Fatalf("Remaining %d, reference %d", r.Remaining(), rr.Remaining())
			}
		}
		// Over-reads: both sides fail with ErrShortRead and stop at the end.
		overRead := func(what string, read func() error, refRead func() error) {
			if err, refErr := read(), refRead(); err != ErrShortRead || refErr != ErrShortRead {
				t.Fatalf("over-read %s: error %v, reference %v", what, err, refErr)
			}
			if r.Remaining() != 0 || rr.Remaining() != 0 {
				t.Fatalf("over-read %s: Remaining %d, reference %d", what, r.Remaining(), rr.Remaining())
			}
		}
		for r.Remaining() >= 64 {
			v, err := r.ReadUint(64)
			rv, refErr := rr.ReadUint(64)
			if v != rv || err != nil || refErr != nil {
				t.Fatalf("ReadUint(64) = %d (%v), reference %d (%v)", v, err, rv, refErr)
			}
		}
		n := r.Remaining()
		overRead("ReadUint",
			func() error { _, err := r.ReadUint(n + 1); return err },
			func() error { _, err := rr.ReadUint(n + 1); return err })
		overRead("ReadBit",
			func() error { _, err := r.ReadBit(); return err },
			func() error { _, err := rr.ReadBit(); return err })
	})
}
