// Package bitio provides bit-granular encoding for distributed proof labels.
//
// Proof size in the DIP model is measured in bits, not bytes; the label
// codecs in this package let protocols marshal structured labels into
// bit strings whose exact length is the quantity the paper bounds.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrShortRead is returned when a reader runs out of bits.
var ErrShortRead = errors.New("bitio: read past end of bit string")

// Writer accumulates bits most-significant-first. The zero value is
// ready to use.
//
// Bits move a word at a time: the most recent bits sit MSB-aligned in
// acc and complete 64-bit words spill to buf, so a label of at most 64
// bits is written without touching the heap and every write is a
// couple of shifts, not a loop over bits.
type Writer struct {
	buf  []byte // flushed 64-bit words, big-endian
	acc  uint64 // the bits after buf, MSB-aligned; unused low bits zero
	nbit int
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b bool) {
	var word uint64
	if b {
		word = 1 << 63
	}
	w.writeWord(word, 1)
}

// WriteUint appends the width low-order bits of v, most significant first.
// It panics if v does not fit in width bits: labels must be tight, and a
// value escaping its declared width is a protocol bug.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bitio: value %d overflows %d bits", v, width))
	}
	if width > 0 {
		w.writeWord(v<<(64-uint(width)), width)
	}
}

// WriteBool appends a boolean as one bit.
func (w *Writer) WriteBool(b bool) { w.WriteBit(b) }

// WriteString appends every bit of s. It is how composite labels embed
// the encodings of their sub-protocols' labels; their decoders read the
// embedded fields back in place, from the composite's own Reader.
// It moves a word at a time.
func (w *Writer) WriteString(s String) {
	for off := 0; off < s.nbit; off += 64 {
		k := min(s.nbit-off, 64)
		w.writeWord(s.word64(off)&highBits(k), k)
	}
}

// writeWord appends the n (1..64) most significant bits of word, whose
// low 64-n bits must be zero.
func (w *Writer) writeWord(word uint64, n int) {
	used := uint(w.nbit - 8*len(w.buf)) // bits held in acc, 0..64
	w.acc |= word >> used
	if free := 64 - used; uint(n) > free {
		if w.buf == nil {
			// Room for the String tail too: one allocation covers a
			// spilled label of up to 192 bits.
			w.buf = make([]byte, 0, 24)
		}
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
		w.acc = word << free
	}
	w.nbit += n
}

// String captures the written bits as an immutable bit string.
func (w *Writer) String() String {
	if w.nbit <= inlineBits {
		return String{word: w.acc, nbit: w.nbit} // buf is empty
	}
	// The string shares buf's flushed words, which the writer never
	// rewrites; clipping buf's capacity makes later writes copy instead
	// of overwriting the tail appended here.
	data := w.buf
	for acc := w.acc; len(data) < (w.nbit+7)/8; acc <<= 8 {
		data = append(data, byte(acc>>56))
	}
	w.buf = w.buf[:len(w.buf):len(w.buf)]
	return String{data: data, nbit: w.nbit}
}

// inlineBits is the largest bit length stored inline in a String.
const inlineBits = 64

// String is an immutable sequence of bits. The zero value is the empty
// string, which is a valid (0-bit) label.
//
// Strings of at most 64 bits — which covers almost every coin and label
// a DIP verifier round produces — are stored inline: the bits live
// MSB-aligned in word with data nil, so constructing, copying, and
// comparing them never touches the heap. Longer strings spill to a byte
// slice. The representation is canonical (nbit <= 64 always means
// inline, unused low-order word bits are zero), which keeps Equal a
// single word compare on the short form.
type String struct {
	data []byte // spill storage for nbit > inlineBits; nil otherwise
	word uint64 // inline bits, MSB-aligned, for nbit <= inlineBits
	nbit int
}

// FromUint packs v into a width-bit string. For widths up to 64 — all
// of them — the result is inline and the call performs no allocation,
// which is what keeps per-node coin sampling off the heap in the
// engine hot paths.
func FromUint(v uint64, width int) String {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v >= 1<<uint(width) {
		panic(fmt.Sprintf("bitio: value %d overflows %d bits", v, width))
	}
	return String{word: v << (64 - uint(width)), nbit: width}
}

// Len returns the bit length of the string.
func (s String) Len() int { return s.nbit }

// Bit returns bit i (0-indexed from the most significant end).
func (s String) Bit(i int) bool {
	if i < 0 || i >= s.nbit {
		panic(fmt.Sprintf("bitio: bit index %d out of range [0,%d)", i, s.nbit))
	}
	if s.data == nil {
		return s.word>>(63-uint(i))&1 == 1
	}
	return s.data[i/8]>>(7-uint(i%8))&1 == 1
}

// Equal reports whether two bit strings are identical in length and content.
func (s String) Equal(t String) bool {
	if s.nbit != t.nbit {
		return false
	}
	if s.nbit <= inlineBits {
		return s.word == t.word
	}
	for i := range s.data {
		if s.data[i] != t.data[i] {
			return false
		}
	}
	return true
}

// Reader returns a cursor over the string's bits.
func (s String) Reader() *Reader { return &Reader{s: s} }

func (s String) String() string {
	out := make([]byte, s.nbit)
	for i := 0; i < s.nbit; i++ {
		if s.Bit(i) {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}

// word64 returns the 64 bits of s starting at bit pos, MSB-aligned;
// bits past the end of s read as zero. On the inline form it is one
// shift.
func (s String) word64(pos int) uint64 {
	if s.data == nil {
		return s.word << uint(pos)
	}
	return s.spilledWord64(pos)
}

// spilledWord64 is word64 on the spilled form: at most nine byte steps.
func (s String) spilledWord64(pos int) uint64 {
	i, off := pos/8, uint(pos%8)
	var w uint64
	if i+8 <= len(s.data) {
		w = binary.BigEndian.Uint64(s.data[i:])
	} else {
		for k, b := range s.data[i:] {
			w |= uint64(b) << (56 - 8*uint(k))
		}
	}
	if off != 0 {
		w <<= off
		if i+8 < len(s.data) {
			w |= uint64(s.data[i+8]) >> (8 - off)
		}
	}
	return w
}

// Reader consumes a String most-significant-bit first.
type Reader struct {
	s   String
	pos int
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.s.nbit - r.pos }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (bool, error) {
	v, err := r.ReadUint(1)
	return v == 1, err
}

// ReadUint consumes width bits as an unsigned integer. A read past the
// end returns ErrShortRead and leaves the reader at the end.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if width > r.Remaining() {
		r.pos = r.s.nbit
		return 0, ErrShortRead
	}
	v := r.s.word64(r.pos) >> (64 - uint(width))
	r.pos += width
	return v, nil
}

// ReadBool consumes one bit as a boolean.
func (r *Reader) ReadBool() (bool, error) { return r.ReadBit() }

// highBits is the mask of the n (0..64) most significant bits.
func highBits(n int) uint64 { return ^(^uint64(0) >> uint(n)) }

// BitsFor returns the number of bits needed to represent values in [0, n),
// i.e. ceil(log2 n), with BitsFor(0) = BitsFor(1) = 0.
func BitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
