package serve

import (
	"fmt"
	"math"
)

// EdgeList is the wire form of graph.edges: [u, v] pairs. It decodes
// by hand, because decoding a [][2]int by reflection was most of what a
// cached inline certify cost, and it decodes exactly as encoding/json
// decodes a [][2]int: the same bodies are accepted, with the same
// values. That includes encoding/json's in-place rules, which a
// repeated "edges" key exposes: elements decode over what the slice
// already holds within its capacity, a null element keeps it, a pair
// drops elements past its second and zeroes what a short one leaves
// out, null gives a nil slice and [] a fresh empty one.
type EdgeList [][2]int

// PosList is the wire form of witness_pos, decoded by hand exactly as
// encoding/json decodes a []int (see EdgeList).
type PosList []int

// UnmarshalJSON implements json.Unmarshaler.
func (e *EdgeList) UnmarshalJSON(data []byte) error {
	return decodeSlice(data, "graph.edges", (*[][2]int)(e), (*wireParser).pair)
}

// UnmarshalJSON implements json.Unmarshaler.
func (l *PosList) UnmarshalJSON(data []byte) error {
	return decodeSlice(data, "witness_pos", (*[]int)(l), (*wireParser).integer)
}

// decodeSlice decodes data, one JSON value, into *s as encoding/json
// decodes into a slice: null sets nil, [] a fresh empty slice, and an
// array decodes each element with elem over the slice's existing
// storage, growing it past its capacity. Anything else is an error.
func decodeSlice[T any](data []byte, field string, s *[]T, elem func(*wireParser, *T) error) error {
	p := &wireParser{data: data, field: field}
	if p.null() {
		*s = nil
		return nil
	}
	out := *s
	n, err := p.array(func(i int) error {
		if i == len(out) {
			if i < cap(out) {
				out = out[:i+1]
			} else {
				out = append(out, *new(T))
			}
		}
		return elem(p, &out[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		out = []T{}
	}
	*s = out[:n]
	return nil
}

// wireParser reads one JSON value that encoding/json has already
// checked to be well formed and cut to the value's own bytes (the
// json.Unmarshaler contract); it still fails, rather than panics, on
// bytes that are not.
type wireParser struct {
	data  []byte
	i     int
	field string // names the request field in errors
}

func (p *wireParser) fail(what string) error {
	return fmt.Errorf("%s: %s at offset %d", p.field, what, p.i)
}

// space skips JSON whitespace.
func (p *wireParser) space() {
	for p.i < len(p.data) {
		switch p.data[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace, then c if it is next.
func (p *wireParser) consume(c byte) bool {
	p.space()
	if p.i < len(p.data) && p.data[p.i] == c {
		p.i++
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (p *wireParser) null() bool {
	p.space()
	if len(p.data)-p.i >= 4 && string(p.data[p.i:p.i+4]) == "null" {
		p.i += 4
		return true
	}
	return false
}

// array reads a JSON array, calling elem with each element's index
// while p sits on that element; elem consumes it. It returns the
// element count.
func (p *wireParser) array(elem func(i int) error) (int, error) {
	if !p.consume('[') {
		return 0, p.fail("want an array")
	}
	if p.consume(']') {
		return 0, nil
	}
	for n := 0; ; {
		p.space()
		if err := elem(n); err != nil {
			return n, err
		}
		n++
		if p.consume(']') {
			return n, nil
		}
		if !p.consume(',') {
			return n, p.fail("malformed JSON")
		}
	}
}

// pair decodes one edge as encoding/json decodes a [2]int in place:
// null keeps it, elements past the second are skipped unread, and a
// short array zeroes the rest.
func (p *wireParser) pair(v *[2]int) error {
	if p.null() {
		return nil
	}
	n, err := p.array(func(j int) error {
		if j < 2 {
			return p.integer(&v[j])
		}
		p.skip()
		return nil
	})
	if err != nil {
		return err
	}
	for ; n < 2; n++ {
		v[n] = 0
	}
	return nil
}

// integer decodes one element as encoding/json decodes an int: null
// keeps *v, and a number must be an integer within int's range, with no
// fraction or exponent. Strings, booleans, arrays and objects are
// errors.
func (p *wireParser) integer(v *int) error {
	if p.null() {
		return nil
	}
	d := p.data
	i := p.i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		u = u*10 + uint64(d[i]-'0')
		i++
	}
	digits := i - start
	switch {
	case digits == 0 || i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E'):
		return p.fail("want an integer or null")
	case digits > 19 || (!neg && u > math.MaxInt) || (neg && u > math.MaxInt+1):
		return p.fail("integer out of range")
	}
	p.i = i
	if *v = int(u); neg {
		*v = -*v
	}
	return nil
}

// skip passes over one JSON value, which encoding/json has checked, by
// tracking nesting and strings only. Bytes that end inside the value
// leave p at the end, where the enclosing array fails.
func (p *wireParser) skip() {
	depth := 0
	for ; p.i < len(p.data); p.i++ {
		switch p.data[p.i] {
		case '"':
			for p.i++; p.i < len(p.data) && p.data[p.i] != '"'; p.i++ {
				if p.data[p.i] == '\\' {
					p.i++
				}
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return
			}
			depth--
		case ',':
			if depth == 0 {
				return
			}
		}
	}
}
