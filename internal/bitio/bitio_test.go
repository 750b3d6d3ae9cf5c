package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	tests := []struct {
		v     uint64
		width int
	}{
		{0, 0}, {0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9},
		{1<<32 - 1, 32}, {1<<63 - 1, 63},
	}
	for _, tt := range tests {
		var w Writer
		w.WriteUint(tt.v, tt.width)
		s := w.String()
		if s.Len() != tt.width {
			t.Fatalf("width %d: got len %d", tt.width, s.Len())
		}
		got, err := s.Reader().ReadUint(tt.width)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got != tt.v {
			t.Fatalf("round trip %d/%d: got %d", tt.v, tt.width, got)
		}
		// The same field carried as a string: written after a one-bit
		// offset and read back in place.
		var ws Writer
		ws.WriteBit(true)
		ws.WriteString(s)
		r := ws.String().Reader()
		if b, _ := r.ReadBit(); !b {
			t.Fatalf("width %d: lost the offset bit", tt.width)
		}
		sub, err := r.ReadUint(tt.width)
		if err != nil || sub != tt.v || r.Remaining() != 0 {
			t.Fatalf("string round trip %d/%d: got %d (%v), remaining %d", tt.v, tt.width, sub, err, r.Remaining())
		}
	}
}

func TestMixedFields(t *testing.T) {
	var w Writer
	w.WriteBool(true)
	w.WriteUint(42, 7)
	w.WriteBool(false)
	w.WriteUint(9, 5)
	w.WriteString(FromUint(0b101, 3))
	s := w.String()
	if s.Len() != 17 {
		t.Fatalf("len = %d, want 17", s.Len())
	}
	r := s.Reader()
	b, _ := r.ReadBool()
	if !b {
		t.Fatal("first bool")
	}
	v, _ := r.ReadUint(7)
	if v != 42 {
		t.Fatalf("got %d want 42", v)
	}
	b, _ = r.ReadBool()
	if b {
		t.Fatal("second bool")
	}
	v, _ = r.ReadUint(5)
	if v != 9 {
		t.Fatalf("got %d want 9", v)
	}
	if sub, _ := r.ReadUint(3); sub != 0b101 {
		t.Fatalf("got %b want 101", sub)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining %d", r.Remaining())
	}
}

func TestShortRead(t *testing.T) {
	s := FromUint(3, 2)
	r := s.Reader()
	if _, err := r.ReadUint(3); err != ErrShortRead {
		t.Fatalf("want ErrShortRead, got %v", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("short read left %d bits, want the reader at the end", r.Remaining())
	}
}

func TestOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow")
		}
	}()
	var w Writer
	w.WriteUint(8, 3)
}

func TestEqual(t *testing.T) {
	a := FromUint(5, 3)
	b := FromUint(5, 3)
	c := FromUint(5, 4)
	if !a.Equal(b) {
		t.Fatal("equal strings differ")
	}
	if a.Equal(c) {
		t.Fatal("different lengths compare equal")
	}
	var zero String
	if !zero.Equal(String{}) {
		t.Fatal("zero values differ")
	}
}

func TestBitsFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11},
	}
	for _, tt := range tests {
		if got := BitsFor(tt.n); got != tt.want {
			t.Errorf("BitsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint16) bool {
		var w Writer
		for _, v := range vals {
			w.WriteUint(uint64(v), 16)
		}
		r := w.String().Reader()
		for _, v := range vals {
			got, err := r.ReadUint(16)
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestStringBitAccess(t *testing.T) {
	s := FromUint(0b1011, 4)
	want := []bool{true, false, true, true}
	for i, b := range want {
		if s.Bit(i) != b {
			t.Fatalf("bit %d: got %v want %v", i, s.Bit(i), b)
		}
	}
	if s.String() != "1011" {
		t.Fatalf("String() = %q", s.String())
	}
}

// TestInlineCanonicalForm pins the inline small-string representation:
// every construction path must yield the inline form for <= 64 bits
// (data nil, so FromUint and short Writer.String calls are heap-free)
// and the spilled form beyond, with Bit/Equal/Reader agreeing across
// the boundary.
func TestInlineCanonicalForm(t *testing.T) {
	for _, width := range []int{0, 1, 4, 8, 31, 32, 63, 64} {
		v := uint64(0xA5A5A5A5A5A5A5A5) & (1<<uint(width) - 1)
		if width == 64 {
			v = 0xA5A5A5A5A5A5A5A5
		}
		direct := FromUint(v, width)
		var w Writer
		w.WriteUint(v, width)
		written := w.String()
		if direct.data != nil || written.data != nil {
			t.Fatalf("width %d: expected inline form, got spilled", width)
		}
		if !direct.Equal(written) {
			t.Fatalf("width %d: FromUint and Writer.String disagree", width)
		}
		got, err := written.Reader().ReadUint(width)
		if err != nil || got != v {
			t.Fatalf("width %d: round-trip got %d (%v), want %d", width, got, err, v)
		}
		var ws Writer
		ws.WriteString(direct)
		if copied := ws.String(); copied.data != nil || !copied.Equal(direct) {
			t.Fatalf("width %d: WriteString broke the inline form", width)
		}
	}
	var w Writer
	w.WriteUint(0xDEADBEEF, 32)
	w.WriteUint(0xDEADBEEF, 32)
	w.WriteBit(true)
	long := w.String() // 65 bits: must spill
	if long.data == nil {
		t.Fatal("65-bit string should spill to data")
	}
	if long.Len() != 65 || !long.Bit(64) {
		t.Fatalf("spilled string: len=%d bit64=%v", long.Len(), long.Bit(64))
	}
	r := long.Reader()
	head, _ := r.ReadUint(64)
	tail, _ := r.ReadUint(1)
	if head != 0xDEADBEEFDEADBEEF || tail != 1 {
		t.Fatal("reading a spilled string across the boundary")
	}
	var ws Writer
	ws.WriteString(long)
	if again := ws.String(); again.data == nil || !again.Equal(long) {
		t.Fatal("WriteString of a spilled string")
	}
}

// TestFromUintNoAlloc gates the engine-hot-path property the inline
// form exists for: packing a small value into a String is free.
func TestFromUintNoAlloc(t *testing.T) {
	var sink String
	allocs := testing.AllocsPerRun(100, func() {
		sink = FromUint(13, 8)
	})
	if allocs != 0 {
		t.Errorf("FromUint allocated %.1f times per call, want 0", allocs)
	}
	if sink.Len() != 8 {
		t.Fatal("bad sink")
	}
}
