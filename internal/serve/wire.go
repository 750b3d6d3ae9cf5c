package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The certify request body is decoded by hand, in one pass over its
// bytes: a cached inline certify costs little more than reading them.
// The decoder accepts and rejects exactly what json.Decoder with
// DisallowUnknownFields accepts and rejects when it decodes a Request
// whose graph.edges and witness_pos are plain [][2]int and []int, with
// the same values (FuzzRequestDecode holds it to that):
//
//   - only the first JSON value is read; bytes after it are ignored. A
//     top-level null leaves the request as it is; any other value but
//     an object is an error;
//   - a key names a field exactly or under encoding/json's case folding;
//     an unknown key is an error at every level;
//   - a repeated key decodes over the earlier value: scalars and
//     strings are overwritten, a second graph or gen object merges into
//     the first, and null resets graph, gen and chord_prob but leaves a
//     scalar or a string as it was;
//   - arrays decode in place (decodeSlice);
//   - an integer field takes a JSON number with no fraction or exponent
//     within the field's range; chord_prob takes what
//     strconv.ParseFloat takes;
//   - strings decode escapes, and turn a lone surrogate escape or an
//     invalid UTF-8 byte into U+FFFD;
//   - every byte of the first value must be valid JSON, skipped
//     elements included, nested at most maxDepth deep.

// maxDepth is encoding/json's nesting limit for arrays and objects.
const maxDepth = 10000

// Field names, in the order the decoders below switch on them.
var (
	requestFields = []string{"protocol", "seed", "graph", "gen", "witness_pos", "timeout_ms"}
	graphFields   = []string{"n", "edges"}
	genFields     = []string{"family", "n", "chord_prob", "delta", "seed"}
)

// UnmarshalJSON implements json.Unmarshaler with decodeRequest, so that
// a request decodes the same way wherever it is read: certify bodies,
// batch items, and replayed requests. Like decodeRequest it decodes in
// place, and null leaves the request as it is.
func (r *Request) UnmarshalJSON(data []byte) error {
	return decodeRequest(data, r)
}

// decodeRequest decodes the first JSON value of body into *req, over
// what *req already holds.
func decodeRequest(body []byte, req *Request) error {
	p := parsers.Get().(*wireParser)
	*p = wireParser{data: body, pairs: p.pairs, ints: p.ints}
	defer p.release()
	p.space()
	if p.i == len(p.data) {
		return p.fail("empty body")
	}
	if p.null() {
		return nil
	}
	return p.object(requestFields, func(k int) error {
		switch k {
		case 0:
			return p.str(&req.Protocol)
		case 1:
			return integer(p, &req.Seed)
		case 2:
			return p.graph(&req.Graph)
		case 3:
			return p.gen(&req.Gen)
		case 4:
			return decodeSlice(p, "witness_pos", &req.WitnessPos, &p.ints, integer[int])
		default:
			return integer(p, &req.TimeoutMS)
		}
	})
}

// graph decodes graph into *g: null sets nil, and an object merges
// into *g, allocated if nil.
func (p *wireParser) graph(g **GraphJSON) error {
	if p.null() {
		*g = nil
		return nil
	}
	if !p.at('{') {
		return p.fail("graph: want an object or null")
	}
	if *g == nil {
		*g = new(GraphJSON)
	}
	gj := *g
	return p.object(graphFields, func(k int) error {
		if k == 0 {
			return integer(p, &gj.N)
		}
		return decodeSlice(p, "graph.edges", &gj.Edges, &p.pairs, (*wireParser).pair)
	})
}

// gen decodes gen into *g as graph decodes graph.
func (p *wireParser) gen(g **GenSpecJSON) error {
	if p.null() {
		*g = nil
		return nil
	}
	if !p.at('{') {
		return p.fail("gen: want an object or null")
	}
	if *g == nil {
		*g = new(GenSpecJSON)
	}
	gs := *g
	return p.object(genFields, func(k int) error {
		switch k {
		case 0:
			return p.str(&gs.Family)
		case 1:
			return integer(p, &gs.N)
		case 2:
			return p.float(&gs.ChordProb)
		case 3:
			return integer(p, &gs.Delta)
		default:
			return integer(p, &gs.Seed)
		}
	})
}

// decodeSlice decodes one value, the named field, into *s as
// encoding/json decodes into a slice: null sets nil, [] a fresh empty
// slice, and an array decodes each element with elem over the slice's
// existing storage, growing it past its capacity. A repeated key
// exposes these in-place rules: an element decodes over what the slice
// already holds within its capacity, so a null element keeps it, and
// growth within the old capacity brings old elements back. Anything
// else is an error. A slice with no storage decodes into scratch, and
// is copied out at its length: the values growing it would give,
// without the growth.
func decodeSlice[T any](p *wireParser, field string, s, scratch *[]T, elem func(*wireParser, *T) error) error {
	p.field = field
	if p.null() {
		*s = nil
		p.field = ""
		return nil
	}
	out, fresh := *s, cap(*s) == 0
	if fresh {
		out = (*scratch)[:0]
	}
	more, err := p.list()
	n := 0
	for ; more && err == nil; n++ {
		if n == len(out) {
			if n < cap(out) && !fresh {
				out = out[:n+1]
			} else {
				out = append(out, *new(T))
			}
		}
		if err = elem(p, &out[n]); err == nil {
			more, err = p.next(']')
		}
	}
	if fresh {
		*scratch = out
	}
	switch {
	case err != nil:
		return err
	case n == 0:
		out = []T{}
	case fresh:
		out = slices.Clone(out[:n])
	}
	*s = out[:n]
	p.field = ""
	return nil
}

// wireParser reads JSON from data, one value at a time, checking every
// byte it passes over.
type wireParser struct {
	data  []byte
	i     int
	depth int    // open arrays and objects
	field string // the array being decoded, for errors
	// Scratch storage for decodeSlice, kept across decodes.
	pairs [][2]int
	ints  []int
}

// parsers recycles parsers with their scratch storage, so that a
// fresh array is built without growing it element by element.
var parsers = sync.Pool{New: func() any { return new(wireParser) }}

// maxScratch bounds the scratch elements a pooled parser keeps.
const maxScratch = 1 << 16

func (p *wireParser) release() {
	if cap(p.pairs) > maxScratch {
		p.pairs = nil
	}
	if cap(p.ints) > maxScratch {
		p.ints = nil
	}
	p.data = nil
	parsers.Put(p)
}

func (p *wireParser) fail(what string) error {
	if p.field != "" {
		return fmt.Errorf("%s: %s at offset %d", p.field, what, p.i)
	}
	return fmt.Errorf("%s at offset %d", what, p.i)
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

// at reports whether c is the next byte.
func (p *wireParser) at(c byte) bool {
	return p.i < len(p.data) && p.data[p.i] == c
}

// consume skips whitespace, then c if it is next.
func (p *wireParser) consume(c byte) bool {
	p.space()
	if p.at(c) {
		p.i++
		return true
	}
	return false
}

// literal consumes lit if it is next.
func (p *wireParser) literal(lit string) bool {
	if p.i+len(lit) <= len(p.data) && p.data[p.i] == lit[0] && string(p.data[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (p *wireParser) null() bool {
	return p.literal("null")
}

// open consumes c, the opening bracket or brace of a container, and
// counts it against maxDepth.
func (p *wireParser) open(c byte) error {
	if !p.at(c) {
		if c == '[' {
			return p.fail("want an array or null")
		}
		return p.fail("want an object or null")
	}
	p.i++
	if p.depth++; p.depth > maxDepth {
		return p.fail("nesting too deep")
	}
	return nil
}

// end consumes closer, the closing bracket or brace of the innermost
// container, if it is next after whitespace.
func (p *wireParser) end(closer byte) bool {
	if p.consume(closer) {
		p.depth--
		return true
	}
	return false
}

// list opens an array and reports whether an element follows, with p
// on it. Read each element, then call next.
func (p *wireParser) list() (bool, error) {
	if err := p.open('['); err != nil {
		return false, err
	}
	return !p.end(']'), nil
}

// next passes the separator after an element of the innermost
// container: a comma, reporting that another element follows with p on
// it, or closer, reporting the end.
func (p *wireParser) next(closer byte) (bool, error) {
	p.space()
	switch {
	case p.at(','):
		p.i++
		p.space()
		return true, nil
	case p.at(closer):
		p.i++
		p.depth--
		return false, nil
	}
	return false, p.fail("want a comma or " + string(closer))
}

// object reads a JSON object whose keys must name one of fields,
// calling field with the index of the field each key names while p
// sits on its value; field consumes it.
func (p *wireParser) object(fields []string, field func(k int) error) error {
	if err := p.open('{'); err != nil {
		return err
	}
	more := !p.end('}')
	for more {
		k, err := p.key(fields)
		if err != nil {
			return err
		}
		if !p.consume(':') {
			return p.fail("want a colon")
		}
		p.space()
		if err := field(k); err != nil {
			return err
		}
		if more, err = p.next('}'); err != nil {
			return err
		}
	}
	return nil
}

// key reads an object key and returns the index of the field in fields
// it names, matched as encoding/json matches a key to a struct field.
func (p *wireParser) key(fields []string) (int, error) {
	if !p.at('"') {
		return 0, p.fail("want a key")
	}
	start := p.i
	k, err := p.unquote()
	if err != nil {
		return 0, err
	}
	for i, f := range fields {
		if string(k) == f || foldEqual(k, f) {
			return i, nil
		}
	}
	p.i = start
	return 0, p.fail(fmt.Sprintf("unknown field %q", k))
}

// foldEqual reports whether key equals name, an ASCII field name, as
// encoding/json folds keys: each rune replaced by the smallest rune of
// its simple case-folding orbit ('S' for 's' and 'ſ').
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r, size := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key[i:])
		}
		i += size
		if j == len(name) || foldRune(r) != foldRune(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

// foldRune returns the smallest rune in r's simple case-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// str decodes a string value into *s; null keeps *s.
func (p *wireParser) str(s *string) error {
	if p.null() {
		return nil
	}
	if !p.at('"') {
		return p.fail("want a string or null")
	}
	b, err := p.unquote()
	if err == nil {
		*s = string(b)
	}
	return err
}

// unquote reads a JSON string and returns its value as encoding/json
// unquotes it. A raw control character, a malformed escape or a missing
// closing quote is an error. The value aliases p.data when the string
// holds only printable ASCII.
func (p *wireParser) unquote() ([]byte, error) {
	d := p.data
	start := p.i + 1
	i := start
	for ; i < len(d); i++ {
		c := d[i]
		if c == '"' {
			p.i = i + 1
			return d[start:i], nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
	}
	b := append([]byte(nil), d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			p.i = i + 1
			return b, nil
		case c < ' ':
			p.i = i
			return nil, p.fail("control character in string")
		case c == '\\':
			if i+1 == len(d) {
				p.i = i
				return nil, p.fail("unterminated string")
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := getu4(d[i:])
				if r < 0 {
					p.i = i
					return nil, p.fail("bad \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, getu4(d[i:])); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				p.i = i
				return nil, p.fail("bad escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	p.i = i
	return nil, p.fail("unterminated string")
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// integer decodes one value as encoding/json decodes an int or int64:
// null keeps *v, and a number must be an integer within T's range, with
// no fraction or exponent. Strings, booleans, arrays and objects are
// errors. Digits are read and accumulated in one pass.
func integer[T int | int64](p *wireParser, v *T) error {
	d, i := p.data, p.i
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
	}
	switch digits := i - start; {
	case digits == 0:
		if !neg && p.null() {
			return nil
		}
		return p.fail("want an integer or null")
	case digits > 1 && d[start] == '0':
		return p.fail("leading zero")
	case i < len(d) && (d[i] == '.' || d[i]|0x20 == 'e'):
		return p.fail("want an integer, not a fraction or exponent")
	case digits > 19 || !neg && u > math.MaxInt64 || neg && u > math.MaxInt64+1:
		return p.fail("integer out of range")
	}
	x := int64(u)
	if neg {
		x = -x
	}
	if int64(T(x)) != x {
		return p.fail("integer out of range")
	}
	p.i, *v = i, T(x)
	return nil
}

// float decodes chord_prob: null sets nil, and a number sets the
// float, allocated if nil, to what strconv.ParseFloat makes of it.
func (p *wireParser) float(f **float64) error {
	if p.null() {
		*f = nil
		return nil
	}
	start := p.i
	if err := p.number(); err != nil {
		return err
	}
	x, err := strconv.ParseFloat(string(p.data[start:p.i]), 64)
	if err != nil {
		return p.fail("chord_prob out of range")
	}
	if *f == nil {
		*f = new(float64)
	}
	**f = x
	return nil
}

// pair decodes one edge as encoding/json decodes a [2]int in place:
// null keeps it, elements past the second are checked and skipped, and
// a short array zeroes the rest.
func (p *wireParser) pair(v *[2]int) error {
	if u, w, end, ok := plainPair(p.data, p.i); ok && p.depth < maxDepth {
		v[0], v[1], p.i = u, w, end
		return nil
	}
	if p.null() {
		return nil
	}
	more, err := p.list()
	n := 0
	for ; more && err == nil; n++ {
		if n < 2 {
			err = integer(p, &v[n])
		} else {
			err = p.skip()
		}
		if err == nil {
			more, err = p.next(']')
		}
	}
	if err != nil {
		return err
	}
	for ; n < 2; n++ {
		v[n] = 0
	}
	return nil
}

// plainPair reads the common form of an edge at d[i:], [u,v] with no
// whitespace and u, v plain decimal integers (plainUint), and returns
// u, v and the index after the pair. ok is false on anything else,
// which pair then reads in full. Every valid edge json.Marshal writes
// has this form, and skipping the general path's per-token calls for it
// cuts about a tenth of a cached inline certify's CPU.
func plainPair(d []byte, i int) (u, v, end int, ok bool) {
	if i >= len(d) || d[i] != '[' {
		return 0, 0, 0, false
	}
	if u, i, ok = plainUint(d, i+1); !ok || i >= len(d) || d[i] != ',' {
		return 0, 0, 0, false
	}
	if v, i, ok = plainUint(d, i+1); !ok || i >= len(d) || d[i] != ']' {
		return 0, 0, 0, false
	}
	return u, v, i + 1, true
}

// plainUint reads a non-negative integer of 1 to 18 digits without a
// leading zero at d[i:], and returns it and the index after it. The
// caller checks the byte that follows.
func plainUint(d []byte, i int) (x, end int, ok bool) {
	start := i
	for ; i < len(d); i++ {
		c := d[i] - '0'
		if c > 9 {
			break
		}
		x = x*10 + int(c)
	}
	if n := i - start; n == 0 || n > 18 || n > 1 && d[start] == '0' {
		return 0, 0, false
	}
	return x, i, true
}

// digits consumes a run of decimal digits and returns its length.
func (p *wireParser) digits() int {
	start := p.i
	for p.i < len(p.data) && '0' <= p.data[p.i] && p.data[p.i] <= '9' {
		p.i++
	}
	return p.i - start
}

// number consumes a JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *wireParser) number() error {
	p.literal("-")
	switch {
	case p.literal("0"):
	case p.digits() == 0:
		return p.fail("want a number")
	}
	if p.literal(".") && p.digits() == 0 {
		return p.fail("want a digit after the decimal point")
	}
	if p.literal("e") || p.literal("E") {
		if !p.literal("+") {
			p.literal("-")
		}
		if p.digits() == 0 {
			return p.fail("want a digit in the exponent")
		}
	}
	return nil
}

// skip passes over one JSON value, checking that it is well formed and
// nested at most maxDepth deep, counting the containers p is in.
func (p *wireParser) skip() error {
	var closers []byte // of the containers skip has opened, innermost last
	for {
		p.space()
		switch {
		case p.at('['), p.at('{'):
			closer := byte(']')
			if p.at('{') {
				closer = '}'
			}
			if err := p.open(p.data[p.i]); err != nil {
				return err
			}
			if !p.end(closer) {
				closers = append(closers, closer)
				if closer == '}' {
					if err := p.skipKey(); err != nil {
						return err
					}
				}
				continue
			}
		case p.at('"'):
			if _, err := p.unquote(); err != nil {
				return err
			}
		case p.literal("true") || p.literal("false") || p.null():
		default:
			if err := p.number(); err != nil {
				return err
			}
		}
		// After a value: close containers until one has another element.
		for more := false; !more; {
			if len(closers) == 0 {
				return nil
			}
			closer := closers[len(closers)-1]
			var err error
			if more, err = p.next(closer); err != nil {
				return err
			}
			if !more {
				closers = closers[:len(closers)-1]
			} else if closer == '}' {
				if err := p.skipKey(); err != nil {
					return err
				}
			}
		}
	}
}

// skipKey passes over an object key and its colon.
func (p *wireParser) skipKey() error {
	p.space()
	if !p.at('"') {
		return p.fail("want a key")
	}
	if _, err := p.unquote(); err != nil {
		return err
	}
	if !p.consume(':') {
		return p.fail("want a colon")
	}
	return nil
}

// maxCertifyBody bounds what a certify request may send.
const maxCertifyBody = 64 << 20

// bodyBuffers recycles request-body buffers of up to maxPooledBody
// bytes: the decoded request copies what it keeps, so a buffer is free
// again once the body is decoded.
var bodyBuffers = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 1 << 20

// readRequest reads r's body, up to limit bytes, and decodes it into
// *req. As with a json.Decoder over the same http.MaxBytesReader, the
// body is accepted when its first JSON value ends within the limit,
// whatever follows, and reading stops where that value ends: a client
// that holds its body open until it has the answer gets it. The buffer
// grows as bytes arrive, never by a declared Content-Length.
func readRequest(w http.ResponseWriter, r *http.Request, limit int64, req *Request) error {
	buf := bodyBuffers.Get().(*[]byte)
	body := (*buf)[:0]
	src := http.MaxBytesReader(w, r.Body, limit)
	var end valueEnd
	var rerr error
	for !end.found(body) {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := src.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err != nil {
			if !errors.Is(err, io.EOF) {
				rerr = err
			}
			break
		}
	}
	err := decodeRequest(body, req)
	if cap(body) <= maxPooledBody {
		*buf = body
		bodyBuffers.Put(buf)
	}
	if err != nil && rerr != nil {
		return rerr
	}
	return err
}

// valueEnd finds, as a body arrives, where its first JSON value ends:
// once a top-level object's brackets balance outside strings, or once
// the body is seen not to start an object. It checks no syntax, which
// decodeRequest does, so a malformed object is answered once its
// brackets balance or the body ends.
type valueEnd struct {
	i     int  // next byte to scan; past the end after a string's backslash
	depth int  // brackets open; 0 until the top-level object starts
	str   bool // i is inside a string
}

// bracketDepth maps a byte outside strings to its change to the depth.
var bracketDepth = [256]int8{'{': 1, '[': 1, '}': -1, ']': -1}

// found scans what has arrived since the last call and reports whether
// body holds the whole first value, or enough to tell that it is not an
// object: anything but whitespace and a prefix of null.
func (e *valueEnd) found(body []byte) bool {
	i, depth, str := e.i, e.depth, e.str
	if depth == 0 {
		for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
			i++
		}
		e.i = i
		if i == len(body) {
			return false
		}
		if v := body[i:]; v[0] != '{' {
			return len(v) >= len("null") || string(v) != "null"[:len(v)]
		}
		i, depth = i+1, 1
	}
	for i < len(body) {
		if str {
			for ; i < len(body) && body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++ // the escaped byte, which may not have arrived yet
				}
			}
			if i >= len(body) {
				break
			}
			str = false
		} else if body[i] == '"' {
			str = true
		} else if depth += int(bracketDepth[body[i]]); depth == 0 {
			return true
		}
		i++
	}
	e.i, e.depth, e.str = i, depth, str
	return false
}
