package spantree

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/forestcode"
)

// bytesToBits converts fuzz input into a bit string, dropping the last
// drop%8 bits so that labels of every length come up.
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

// refDecodeRow is how Decide read a node's labels before rows: the
// round-0 label must be exactly a forest code and a root mark, the code
// sliced out into a String of its own and decoded there, and the
// round-1 label must hold a sum. It is the oracle row.decode must agree
// with.
func refDecodeRow(labels []bitio.String, p Params) (row, bool) {
	s := labels[0]
	if s.Len() != forestcode.LabelBits+1 {
		return row{}, false
	}
	r := s.Reader()
	var w bitio.Writer
	v, _ := r.ReadUint(forestcode.LabelBits)
	w.WriteUint(v, forestcode.LabelBits)
	fc, err := forestcode.DecodeLabel(w.String())
	if err != nil {
		return row{}, false
	}
	root, _ := r.ReadBool()
	sum, err := DecodeSum(labels[1], p)
	if err != nil {
		return row{}, false
	}
	return row{fc: fc, root: root, sum: sum}, true
}

// FuzzDecoders checks the row decoder on arbitrary pairs of labels
// against the oracle above: the same row, and the same failures.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{0x00}, []byte{0x00}, uint8(7), uint8(1))
	f.Add([]byte{0xa5}, []byte{0xff, 0x13, 0x77}, uint8(0), uint8(5))
	f.Add([]byte{0x5a, 0x01}, []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x05}, uint8(15), uint8(63))
	f.Fuzz(func(t *testing.T, r0, r1 []byte, drop, reps uint8) {
		p := Amplified(int(reps) % 64)
		labels := []bitio.String{bytesToBits(r0, drop), bytesToBits(r1, drop>>3)}
		var got row
		ok := got.decode(labels, p)
		want, refOK := refDecodeRow(labels, p)
		if ok != refOK || (ok && got != want) {
			t.Fatalf("row of %s, %s: got %+v (%v), reference %+v (%v)", labels[0], labels[1], got, ok, want, refOK)
		}
	})
}
