// Package jsonscan is a validating byte scanner over one JSON document in
// memory. It accepts exactly the grammar encoding/json accepts — RFC 8259
// values, any bytes ≥ 0x80 inside strings, at most 10,000 nested arrays
// and objects — and reads nothing it is not asked to: a caller that knows
// its schema walks objects and arrays, takes the numbers it wants as their
// literal bytes and skips (validating) everything else, without reflection
// and without copying.
//
// Every reader skips the whitespace before its value and leaves the scanner
// just past it, so Pos brackets a value's bytes for a caller that forwards
// them.
package jsonscan

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// maxDepth is encoding/json's nesting limit: a document whose arrays and
// objects nest deeper is invalid there, and so here.
const maxDepth = 10000

// Scanner reads one JSON document. The zero value scans an empty document;
// use New.
type Scanner struct {
	data  []byte
	pos   int
	depth int

	// Space records that insignificant whitespace was skipped. A caller
	// that forwards raw value bytes clears it, scans, and compacts the bytes
	// (AppendCompact) only when it was set.
	Space bool
}

// New returns a scanner at the start of data.
func New(data []byte) Scanner { return Scanner{data: data} }

// Pos is the scanner's offset into the document.
func (s *Scanner) Pos() int { return s.pos }

// Next skips whitespace and returns the byte the next value starts with
// ('{', '[', '"', 'n', 't', 'f', '-' or a digit when the document is
// valid), or 0 at the end of the document.
func (s *Scanner) Next() byte {
	s.skipSpace()
	if s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

// End checks that only whitespace follows the top-level value.
func (s *Scanner) End() error {
	if c := s.Next(); s.pos < len(s.data) {
		return s.errorf("invalid character %q after top-level value", c)
	}
	return nil
}

// TypeError reports a value of the wrong kind for want at the scanner's
// position.
func (s *Scanner) TypeError(want string) error {
	return s.errorf("cannot decode a value starting %q into %s", s.Next(), want)
}

// errorf reports what is wrong at the scanner's offset: a document that
// is not JSON, or a value of the wrong kind.
func (s *Scanner) errorf(format string, args ...any) error {
	return fmt.Errorf(format+" (offset %d)", append(args, s.pos)...)
}

func (s *Scanner) unexpected(context string) error {
	if s.pos == len(s.data) {
		return s.errorf("unexpected end of JSON input")
	}
	return s.errorf("invalid character %q %s", s.data[s.pos], context)
}

func (s *Scanner) skipSpace() {
	start := s.pos
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
			continue
		}
		break
	}
	if s.pos != start {
		s.Space = true
	}
}

// Null consumes a null literal and reports whether there was one.
func (s *Scanner) Null() (bool, error) {
	if s.Next() != 'n' {
		return false, nil
	}
	return true, s.literal("null")
}

func (s *Scanner) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if s.pos == len(s.data) || s.data[s.pos] != lit[i] {
			return s.unexpected("in literal " + lit)
		}
		s.pos++
	}
	return nil
}

// Number consumes a number and returns its literal bytes, which
// strconv.ParseInt and ParseFloat read as encoding/json does.
func (s *Scanner) Number() ([]byte, error) {
	s.skipSpace()
	start := s.pos
	if s.peek() == '-' {
		s.pos++
	}
	switch c := s.peek(); {
	case c == '0':
		s.pos++
	case '1' <= c && c <= '9':
		s.digits()
	default:
		return nil, s.unexpected("in numeric literal")
	}
	if s.peek() == '.' {
		s.pos++
		if !isDigit(s.peek()) {
			return nil, s.unexpected("after decimal point in numeric literal")
		}
		s.digits()
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		if !isDigit(s.peek()) {
			return nil, s.unexpected("in exponent of numeric literal")
		}
		s.digits()
	}
	return s.data[start:s.pos], nil
}

func (s *Scanner) peek() byte {
	if s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

func (s *Scanner) digits() {
	for s.pos < len(s.data) && isDigit(s.data[s.pos]) {
		s.pos++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// String consumes a string and returns the bytes between its quotes, still
// escaped; escaped reports whether any backslash occurs in them.
func (s *Scanner) String() (raw []byte, escaped bool, err error) {
	if s.Next() != '"' {
		return nil, false, s.unexpected("looking for beginning of string")
	}
	s.pos++
	start := s.pos
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		switch {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], escaped, nil
		case c == '\\':
			escaped = true
			s.pos++
			switch s.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.pos++
			case 'u':
				s.pos++
				for i := 0; i < 4; i++ {
					if !isHex(s.peek()) {
						return nil, false, s.unexpected("in \\u hexadecimal character escape")
					}
					s.pos++
				}
			default:
				return nil, false, s.unexpected("in string escape code")
			}
		case c < 0x20:
			return nil, false, s.unexpected("in string literal")
		default:
			s.pos++
		}
	}
	return nil, false, s.unexpected("in string literal")
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// Object walks an object, calling member with each key once the scanner
// stands before its value; member must consume the value (Skip, when the
// key is not wanted). The key is unescaped as encoding/json unescapes it,
// and is valid only until member reads into the value. As encoding/json
// decodes into a struct, a null is an object without members and any
// other value a type error.
func (s *Scanner) Object(member func(key []byte) error) error {
	switch s.Next() {
	case 'n':
		_, err := s.Null()
		return err
	case '{':
	default:
		return s.TypeError("object")
	}
	if err := s.enter(); err != nil {
		return err
	}
	s.pos++
	if s.Next() == '}' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		if s.Next() != '"' {
			return s.unexpected("looking for beginning of object key string")
		}
		raw, escaped, err := s.String()
		if err != nil {
			return err
		}
		key := raw
		if escaped {
			// Rare: encoding/json unquotes it, lone surrogates and
			// invalid UTF-8 included, so it matches as it would there.
			var k string
			_ = json.Unmarshal(s.data[s.pos-len(raw)-2:s.pos], &k) // valid: String checked it
			key = []byte(k)
		}
		if s.Next() != ':' {
			return s.unexpected("after object key")
		}
		s.pos++
		if err := member(key); err != nil {
			return err
		}
		switch s.Next() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			s.depth--
			return nil
		default:
			return s.unexpected("after object key:value pair")
		}
	}
}

// Array walks an array, calling elem once the scanner stands before each
// element (whitespace skipped, so Pos is where its bytes start); elem must
// consume the element. A null is an array without elements and any other
// value a type error.
func (s *Scanner) Array(elem func() error) error {
	switch s.Next() {
	case 'n':
		_, err := s.Null()
		return err
	case '[':
	default:
		return s.TypeError("array")
	}
	if err := s.enter(); err != nil {
		return err
	}
	s.pos++
	if s.Next() == ']' {
		s.pos++
		s.depth--
		return nil
	}
	for {
		s.skipSpace()
		if err := elem(); err != nil {
			return err
		}
		switch s.Next() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			s.depth--
			return nil
		default:
			return s.unexpected("after array element")
		}
	}
}

func (s *Scanner) enter() error {
	if s.depth++; s.depth > maxDepth {
		return s.errorf("exceeded max depth")
	}
	return nil
}

// Skip consumes one value of any kind, validating it.
func (s *Scanner) Skip() error {
	switch s.Next() {
	case '{':
		return s.Object(func([]byte) error { return s.Skip() })
	case '[':
		return s.Array(s.Skip)
	case '"':
		_, _, err := s.String()
		return err
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	}
	_, err := s.Number()
	if err != nil {
		return s.unexpected("looking for beginning of value")
	}
	return nil
}

// Field returns the index of the field an unescaped object key names, or
// -1: by encoding/json's rule, the exact name first, else the first name
// equal to the key under Unicode case folding.
func Field(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	for i, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

// AppendCompact appends the valid JSON value src to dst with the
// whitespace outside its strings removed, as json.Compact writes it.
func AppendCompact(dst, src []byte) []byte {
	buf := bytes.NewBuffer(dst)
	_ = json.Compact(buf, src) // valid: the scan that set Space checked it
	return buf.Bytes()
}
