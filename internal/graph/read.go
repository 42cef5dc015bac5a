package graph

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: objects and arrays may nest
// this deep, counted from the top of the document.
const maxDepth = 10000

// When docReader reads from an io.Reader, its buffer starts at
// minReadBuf bytes, so a small document costs a small buffer, and doubles
// while reads fill it, up to maxReadBuf; ReadInstance holds no more of
// the document than that.
const (
	minReadBuf = 4 << 10
	maxReadBuf = 64 << 10
)

// docReader decodes instance documents in one pass, writing values
// straight into the graphs' arrays. It accepts exactly the documents
// encoding/json accepts for the wire types in io.go and builds the same
// graphs from them; ReadInstance's doc comment states the rules.
type docReader struct {
	src   io.Reader // nil when buf holds the whole document
	buf   []byte
	pos   int    // next unread byte of buf
	base  int64  // document offset of buf[0]
	err   error  // why src stopped: io.EOF at its end
	depth int    // objects and arrays open
	tok   []byte // a number or raw string that straddles a refill
	text  []byte // the last unescaped string
}

// fill replaces the buffer with the next read from src and reports
// whether it holds any bytes.
func (r *docReader) fill() bool {
	if r.src == nil || r.err != nil {
		if r.err == nil {
			r.err = io.EOF
		}
		return false
	}
	r.base += int64(len(r.buf))
	if len(r.buf) == cap(r.buf) && cap(r.buf) < maxReadBuf {
		r.buf = make([]byte, 0, 2*cap(r.buf))
	}
	r.buf, r.pos = r.buf[:0], 0
	for tries := 0; tries < 100; tries++ {
		n, err := r.src.Read(r.buf[:cap(r.buf)])
		r.buf = r.buf[:n]
		if err != nil {
			r.err = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	r.err = io.ErrNoProgress
	return false
}

// fail reports a syntax error at the current position, or the read error
// that ended the input there.
func (r *docReader) fail(what string) error {
	if r.pos < len(r.buf) {
		return fmt.Errorf("graph: instance JSON: invalid character %q at byte %d, expected %s",
			r.buf[r.pos], r.base+int64(r.pos), what)
	}
	if r.err != nil && r.err != io.EOF {
		return fmt.Errorf("graph: reading instance: %w", r.err)
	}
	return fmt.Errorf("graph: instance JSON: unexpected end of input, expected %s", what)
}

// typeError reports a member whose value has the wrong JSON type or is a
// number its field cannot hold.
func typeError(what, want string) error {
	return fmt.Errorf("graph: instance JSON: %s must be %s", what, want)
}

func isSpace(c byte) bool {
	return c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r')
}

func isDigit(c byte) bool { return c-'0' < 10 }

// isNumberByte reports whether c can occur in a JSON number.
func isNumberByte(c byte) bool {
	return isDigit(c) || c == '-' || c == '.' || c == 'e' || c == 'E' || c == '+'
}

// peek skips whitespace and returns the next byte without consuming it,
// or 0 at the end of input.
func (r *docReader) peek() byte {
	for {
		for i := r.pos; i < len(r.buf); i++ {
			if c := r.buf[i]; !isSpace(c) {
				r.pos = i
				return c
			}
		}
		r.pos = len(r.buf)
		if !r.fill() {
			return 0
		}
	}
}

// end checks that only whitespace follows the value just read.
func (r *docReader) end() error {
	r.peek()
	if r.pos < len(r.buf) {
		return r.fail("end of input")
	}
	return nil
}

// literal consumes the keyword true, false or null.
func (r *docReader) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if r.pos == len(r.buf) && !r.fill() {
			return r.fail(word)
		}
		if r.buf[r.pos] != word[i] {
			return r.fail(word)
		}
		r.pos++
	}
	return nil
}

// number consumes a JSON number and returns its bytes, which stay valid
// until the next read.
func (r *docReader) number() ([]byte, error) {
	start, i := r.pos, r.pos
	for i < len(r.buf) && isNumberByte(r.buf[i]) {
		i++
	}
	b := r.buf[start:i]
	r.pos = i
	if i == len(r.buf) {
		// The number may go on in the next read.
		r.tok = append(r.tok[:0], b...)
		for r.fill() {
			i = 0
			for i < len(r.buf) && isNumberByte(r.buf[i]) {
				i++
			}
			r.tok = append(r.tok, r.buf[:i]...)
			r.pos = i
			if i < len(r.buf) {
				break
			}
		}
		b = r.tok
	}
	if !validNumber(b) {
		return nil, fmt.Errorf("graph: instance JSON: invalid number %q before byte %d", b, r.base+int64(r.pos))
	}
	return b, nil
}

// validNumber reports whether b is exactly one number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && isDigit(b[i]):
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return false
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	return i == len(b)
}

// pow10 holds the powers of ten shortFloat divides by.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15}

// shortFloat consumes a number of at most 15 digits without exponent
// that ends inside the buffer, the common case, and returns its value.
// Such a number is an exact integer divided by an exact power of ten: one
// correctly rounded division, so the bits strconv.ParseFloat returns. For
// any other next value it consumes nothing and ok is false.
func (r *docReader) shortFloat() (f float64, ok bool) {
	b := r.buf[r.pos:]
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		i++
	}
	var mant uint64
	start := i
	for ; i < len(b) && isDigit(b[i]); i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	digits := i - start
	if digits == 0 || (digits > 1 && b[start] == '0') {
		return 0, false
	}
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
			frac++
		}
		if frac == 0 {
			return 0, false
		}
	}
	if i == len(b) || isNumberByte(b[i]) || digits+frac >= len(pow10) {
		return 0, false
	}
	f = float64(mant)
	if frac > 0 {
		f /= pow10[frac]
	}
	if neg {
		f = -f
	}
	r.pos += i
	return f, true
}

// str consumes a JSON string, the next byte being its opening quote, and
// returns its contents unescaped as encoding/json unescapes them: a lone
// or unpaired surrogate escape and each byte of invalid UTF-8 become
// U+FFFD. The bytes stay valid until the next read.
func (r *docReader) str() ([]byte, error) {
	r.pos++
	for i := r.pos; i < len(r.buf); i++ {
		c := r.buf[i]
		if c == '"' {
			s := r.buf[r.pos:i]
			r.pos = i + 1
			return s, nil
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
	}
	raw := r.tok[:0]
	escaped := false
	for {
		if r.pos == len(r.buf) && !r.fill() {
			r.tok = raw
			return nil, r.fail("closing quote")
		}
		c := r.buf[r.pos]
		switch {
		case escaped:
			escaped = false
		case c == '"':
			r.pos++
			r.tok = raw
			return r.unquote(raw)
		case c == '\\':
			escaped = true
		case c < ' ':
			r.tok = raw
			return nil, r.fail("string character")
		}
		raw = append(raw, c)
		r.pos++
	}
}

// unquote unescapes a string's raw contents into r.text.
func (r *docReader) unquote(raw []byte) ([]byte, error) {
	out := r.text[:0]
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			esc := raw[i+1]
			i += 2
			switch esc {
			case '"', '\\', '/':
				out = append(out, esc)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(raw[i:])
				if rr < 0 {
					return nil, fmt.Errorf("graph: instance JSON: invalid \\u escape in string %q", raw)
				}
				i += 4
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if len(raw) >= i+2 && raw[i] == '\\' && raw[i+1] == 'u' {
						rr1 = hex4(raw[i+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						out = utf8.AppendRune(out, dec)
						i += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, rr)
			default:
				return nil, fmt.Errorf("graph: instance JSON: invalid escape \\%c in string %q", esc, raw)
			}
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			rr, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, rr)
			i += size
		}
	}
	r.text = out
	return out, nil
}

// hex4 decodes the four hex digits that start b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var rr rune
	for _, c := range b[:4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		rr = rr*16 + rune(c)
	}
	return rr
}

// open consumes the '{' or '[' at the next byte.
func (r *docReader) open() error {
	r.pos++
	if r.depth++; r.depth > maxDepth {
		return errors.New("graph: instance JSON: exceeded max depth")
	}
	return nil
}

// object consumes a JSON object, the next byte being its '{'. For each
// member it calls value with the index in keys of the member's key,
// matched as encoding/json matches a struct field's name (exactly or
// under bytes.EqualFold); value consumes the member's value. Members with
// other keys are skipped.
func (r *docReader) object(keys []string, value func(field int) error) error {
	if err := r.open(); err != nil {
		return err
	}
	c := r.peek()
	if c == '}' {
		r.pos++
		r.depth--
		return nil
	}
	for {
		if c != '"' {
			return r.fail("object key")
		}
		key, err := r.str()
		if err != nil {
			return err
		}
		field := -1
		for i, k := range keys {
			if strings.EqualFold(string(key), k) {
				field = i
				break
			}
		}
		if r.peek() != ':' {
			return r.fail("':' after object key")
		}
		r.pos++
		if field < 0 {
			err = r.skip()
		} else {
			err = value(field)
		}
		if err != nil {
			return err
		}
		switch r.peek() {
		case ',':
			r.pos++
			c = r.peek()
		case '}':
			r.pos++
			r.depth--
			return nil
		default:
			return r.fail("',' or '}' after object member")
		}
	}
}

// array consumes a JSON array, the next byte being its '['. It calls elem
// with each element's index; elem consumes the element. It returns the
// element count.
func (r *docReader) array(elem func(i int) error) (int, error) {
	if err := r.open(); err != nil {
		return 0, err
	}
	if r.peek() == ']' {
		r.pos++
		r.depth--
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return 0, err
		}
		switch r.peek() {
		case ',':
			r.pos++
		case ']':
			r.pos++
			r.depth--
			return i + 1, nil
		default:
			return 0, r.fail("',' or ']' after array element")
		}
	}
}

// skip consumes one JSON value of any type, checking its syntax.
func (r *docReader) skip() error {
	switch c := r.peek(); {
	case c == '{':
		return r.object(nil, nil)
	case c == '[':
		_, err := r.array(func(int) error { return r.skip() })
		return err
	case c == '"':
		_, err := r.str()
		return err
	case c == 't':
		return r.literal("true")
	case c == 'f':
		return r.literal("false")
	case c == 'n':
		return r.literal("null")
	case c == '-' || isDigit(c):
		_, err := r.number()
		return err
	}
	return r.fail("value")
}

// The value readers below consume one member value into a field. As in
// encoding/json, null leaves a string, number or bool field as it was and
// sets a slice to nil, and a value of another JSON type is an error.

func (r *docReader) stringValue(dst *string, what string) error {
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case '"':
		s, err := r.str()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	}
	return typeError(what, "a string")
}

func (r *docReader) boolValue(dst *bool, what string) error {
	switch r.peek() {
	case 'n':
		return r.literal("null")
	case 't':
		*dst = true
		return r.literal("true")
	case 'f':
		*dst = false
		return r.literal("false")
	}
	return typeError(what, "a bool")
}

// numberValue consumes a number, reporting null as nil bytes.
func (r *docReader) numberValue(what string) ([]byte, error) {
	switch c := r.peek(); {
	case c == 'n':
		return nil, r.literal("null")
	case c == '-' || isDigit(c):
		return r.number()
	}
	return nil, typeError(what, "a number")
}

func (r *docReader) intValue(dst *int, what string) error {
	b, err := r.numberValue(what)
	if b == nil {
		return err
	}
	v, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
	if err != nil {
		return typeError(what, "an integer")
	}
	*dst = int(v)
	return nil
}

func (r *docReader) int32Value(dst *int32, what string) error {
	b, err := r.numberValue(what)
	if b == nil {
		return err
	}
	v, err := strconv.ParseInt(string(b), 10, 32)
	if err != nil {
		return typeError(what, "a 32-bit integer")
	}
	*dst = int32(v)
	return nil
}

func (r *docReader) uint64Value(dst *uint64, what string) error {
	b, err := r.numberValue(what)
	if b == nil {
		return err
	}
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return typeError(what, "an unsigned integer")
	}
	*dst = v
	return nil
}

func (r *docReader) floatValue(dst *float64, what string) error {
	if c := r.peek(); c == '-' || isDigit(c) {
		if v, ok := r.shortFloat(); ok {
			*dst = v
			return nil
		}
	}
	b, err := r.numberValue(what)
	if b == nil {
		return err
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return typeError(what, "a float64")
	}
	*dst = v
	return nil
}

// extend returns s with length i+1. Past len(s) it uses s's backing
// array first, so a repeated key sees what an earlier value left there,
// as with encoding/json's slice reuse; beyond that it doubles the
// capacity, copying the old backing array and zeroing the rest.
func extend[T any](s []T, i int) []T {
	if i < cap(s) {
		return s[:i+1]
	}
	grown := make([]T, i+1, max(2*cap(s), 16))
	copy(grown, s[:cap(s)])
	return grown
}

// reuse is a slice member's value after an array of count elements was
// decoded into s: an empty array gives a new empty slice.
func reuse[T any](s []T, count int) []T {
	if count == 0 {
		return []T{}
	}
	return s[:count]
}

// floats consumes an array of numbers into s, reusing s's storage as
// extend describes. A null element keeps what s held at its index.
func (r *docReader) floats(s []float64, what string) ([]float64, error) {
	switch r.peek() {
	case 'n':
		return nil, r.literal("null")
	case '[':
	default:
		return nil, typeError(what, "an array")
	}
	count, err := r.array(func(i int) error {
		s = extend(s, i)
		return r.floatValue(&s[i], what)
	})
	if err != nil {
		return nil, err
	}
	return reuse(s, count), nil
}

// int32s is floats for an array of 32-bit integers.
func (r *docReader) int32s(s []int32, what string) ([]int32, error) {
	switch r.peek() {
	case 'n':
		return nil, r.literal("null")
	case '[':
	default:
		return nil, typeError(what, "an array")
	}
	count, err := r.array(func(i int) error {
		s = extend(s, i)
		return r.int32Value(&s[i], what)
	})
	if err != nil {
		return nil, err
	}
	return reuse(s, count), nil
}

var edgeKeys = []string{"u", "v", "w"}

// edges consumes an array of {"u","v","w"} objects into s, reusing s's
// storage as extend describes. A member missing from an element, or a
// null element, keeps what s held there.
func (r *docReader) edges(s []Edge, what string) ([]Edge, error) {
	switch r.peek() {
	case 'n':
		return nil, r.literal("null")
	case '[':
	default:
		return nil, typeError(what, "an array")
	}
	count, err := r.array(func(i int) error {
		s = extend(s, i)
		switch r.peek() {
		case 'n':
			return r.literal("null")
		case '{':
		default:
			return typeError(what, "an array of objects")
		}
		e := &s[i]
		return r.object(edgeKeys, func(field int) error {
			switch field {
			case 0:
				return r.intValue(&e.U, what)
			case 1:
				return r.intValue(&e.V, what)
			}
			return r.floatValue(&e.Weight, what)
		})
	})
	if err != nil {
		return nil, err
	}
	return reuse(s, count), nil
}

// tigDoc is a TIG object's members as read; a repeated key overwrites a
// member as encoding/json overwrites a struct field.
type tigDoc struct {
	kind, name string
	n          int
	weights    []float64
	edges      []Edge
}

var tigKeys = []string{"kind", "name", "n", "weights", "edges"}

// tig consumes a TIG object into d, the next byte being its '{'.
func (r *docReader) tig(d *tigDoc) error {
	return r.object(tigKeys, func(field int) (err error) {
		switch field {
		case 0:
			return r.stringValue(&d.kind, "tig kind")
		case 1:
			return r.stringValue(&d.name, "tig name")
		case 2:
			return r.intValue(&d.n, "tig n")
		case 3:
			d.weights, err = r.floats(d.weights, "tig weights")
		default:
			d.edges, err = r.edges(d.edges, "tig edges")
		}
		return err
	})
}

// build makes the TIG, which takes ownership of d's arrays.
func (d *tigDoc) build() (*TIG, error) {
	if d.kind != "" && d.kind != "tig" {
		return nil, fmt.Errorf("graph: expected kind \"tig\", got %q", d.kind)
	}
	if len(d.weights) != d.n {
		return nil, fmt.Errorf("graph: TIG JSON has %d weights for n=%d", len(d.weights), d.n)
	}
	t := NewTIGWithWeights(d.weights)
	t.Name = d.name
	if err := t.adoptEdges(d.edges, t.AddEdge); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// platformDoc is a platform object's members as read.
type platformDoc struct {
	kind, name string
	n          int
	costs      []float64
	links      []Edge
	closed     bool
	dense      []float64
	labels     []int32
	block      []float64
}

var platformKeys = []string{"kind", "name", "n", "costs", "links", "closed", "dense_link", "labels", "block_link"}

// platform consumes a platform object into d, the next byte being its '{'.
func (r *docReader) platform(d *platformDoc) error {
	return r.object(platformKeys, func(field int) (err error) {
		switch field {
		case 0:
			return r.stringValue(&d.kind, "platform kind")
		case 1:
			return r.stringValue(&d.name, "platform name")
		case 2:
			return r.intValue(&d.n, "platform n")
		case 3:
			d.costs, err = r.floats(d.costs, "platform costs")
		case 4:
			d.links, err = r.edges(d.links, "platform links")
		case 5:
			return r.boolValue(&d.closed, "platform closed")
		case 6:
			d.dense, err = r.floats(d.dense, "platform dense_link")
		case 7:
			d.labels, err = r.int32s(d.labels, "platform labels")
		default:
			d.block, err = r.floats(d.block, "platform block_link")
		}
		return err
	})
}

// build makes the platform, which takes ownership of d's arrays. Non-nil
// labels and block_link, even empty ones, are the link table of a block
// platform, which may carry neither dense_link nor links. Otherwise a
// non-nil dense_link is the link matrix and the links and closed members
// are ignored; failing both, the links are added and, if closed, closed
// over shortest paths.
func (d *platformDoc) build() (*ResourceGraph, error) {
	if d.kind != "" && d.kind != "resource" {
		return nil, fmt.Errorf("graph: expected kind \"resource\", got %q", d.kind)
	}
	if len(d.costs) != d.n {
		return nil, fmt.Errorf("graph: resource JSON has %d costs for n=%d", len(d.costs), d.n)
	}
	costs := d.costs
	if costs == nil {
		costs = []float64{}
	}
	var p *ResourceGraph
	if d.labels != nil || d.block != nil {
		switch {
		case d.labels == nil || d.block == nil:
			return nil, errors.New("graph: a block platform needs both labels and block_link")
		case d.dense != nil || d.links != nil:
			return nil, errors.New("graph: a block platform cannot also carry dense_link or links")
		}
		if err := checkBlocks(costs, d.labels, d.block); err != nil {
			return nil, err
		}
		p = blockGraph(costs, d.labels, d.block)
		p.Name = d.name
	} else if d.dense != nil {
		if err := checkDense(costs, d.dense); err != nil {
			return nil, err
		}
		p = denseGraph(costs, d.dense)
		p.Name = d.name
	} else {
		p = newResourceGraph(costs)
		p.Name = d.name
		if err := p.adoptEdges(d.links, p.AddLink); err != nil {
			return nil, err
		}
		if d.closed {
			if err := p.CloseLinks(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// readWhole decodes data, which must hold one object, read by obj, or
// null, and nothing but whitespace besides: what json.Unmarshal accepts
// for a type that implements json.Unmarshaler.
func readWhole(data []byte, what string, obj func(r *docReader) error) error {
	r := docReader{buf: data}
	var err error
	switch r.peek() {
	case 'n':
		err = r.literal("null")
	case '{':
		err = obj(&r)
	default:
		err = typeError(what, "an object")
	}
	if err != nil {
		return err
	}
	return r.end()
}

var instanceKeys = []string{"tig", "platform", "seed"}

// instance consumes an instance document. It stops after the top-level
// object's closing brace and reads nothing beyond it.
func (r *docReader) instance() (*Instance, error) {
	if r.peek() != '{' {
		if r.pos == len(r.buf) {
			return nil, r.fail("instance object")
		}
		return nil, errors.New("graph: instance JSON must be an object")
	}
	var in Instance
	err := r.object(instanceKeys, func(field int) (err error) {
		switch field {
		case 0:
			if r.peek() == 'n' {
				in.TIG = nil
				return r.literal("null")
			}
			in.TIG, err = r.readTIG()
		case 1:
			if r.peek() == 'n' {
				in.Platform = nil
				return r.literal("null")
			}
			in.Platform, err = r.readPlatform()
		default:
			return r.uint64Value(&in.Seed, "seed")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return &in, nil
}

// readTIG consumes a TIG object and builds it.
func (r *docReader) readTIG() (*TIG, error) {
	if r.peek() != '{' {
		return nil, typeError("tig", "an object")
	}
	var d tigDoc
	if err := r.tig(&d); err != nil {
		return nil, err
	}
	return d.build()
}

// readPlatform consumes a platform object and builds it.
func (r *docReader) readPlatform() (*ResourceGraph, error) {
	if r.peek() != '{' {
		return nil, typeError("platform", "an object")
	}
	var d platformDoc
	if err := r.platform(&d); err != nil {
		return nil, err
	}
	return d.build()
}
