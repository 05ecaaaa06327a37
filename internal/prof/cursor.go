package prof

// cursor is the JSON tokenizer under the profile-set reader (decode.go):
// a byte offset into one in-memory document, with typed readers that
// validate the grammar as they consume it. It knows nothing about
// profiles; what it knows is where it agrees with encoding/json — the
// number and string grammar, U+FFFD substitution, null as "leave the
// destination alone", integers that refuse 1.0 and 1e3, the nesting cap.

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth caps container nesting, as encoding/json does: a hostile
// upload is refused with an error instead of exhausting a stack.
const maxDepth = 10000

// syntaxError is a grammar or field-type violation at a byte offset.
type syntaxError struct {
	msg string
	off int
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("parse profile set: %s at offset %d", e.msg, e.off)
}

// cursor is a validating JSON tokenizer over one in-memory document.
type cursor struct {
	data  []byte
	pos   int
	depth int
	// scratch holds the most recent string that needed unquoting.
	scratch []byte
	// open is skip's explicit stack: the closing byte of every container
	// it is inside.
	open []byte
}

func (c *cursor) fail(msg string) error { return &syntaxError{msg: msg, off: c.pos} }

// next skips whitespace and returns the byte at the cursor, 0 at the end
// of input (a NUL byte starts no JSON token, so the two need no telling
// apart).
//
//scalana:hot
func (c *cursor) next() byte {
	data, i := c.data, c.pos
	for ; i < len(data); i++ {
		if b := data[i]; b > ' ' || (b != ' ' && b != '\n' && b != '\t' && b != '\r') {
			c.pos = i
			return b
		}
	}
	c.pos = i
	return 0
}

// enter consumes the '{' or '[' at the cursor.
func (c *cursor) enter() error {
	c.pos++
	if c.depth++; c.depth > maxDepth {
		return c.fail("exceeded max depth")
	}
	return nil
}

// more reports whether another member follows in the container entered
// last, consuming the separating comma or the closing byte. first is true
// before the container's first member.
//
//scalana:hot
func (c *cursor) more(closer byte, first bool) (bool, error) {
	switch b := c.next(); {
	case b == closer:
		c.pos++
		c.depth--
		return false, nil
	case first:
		return true, nil
	case b == ',':
		c.pos++
		return true, nil
	}
	return false, c.fail("expected ',' or the end of the container")
}

// plainByte marks the bytes a string may hold that need no decoding.
var plainByte = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// rawString consumes the string literal at the cursor and returns the
// bytes between its quotes, validated but not decoded; plain reports that
// they hold no escape and no non-ASCII byte, so they are their own
// decoding.
//
//scalana:hot
func (c *cursor) rawString() (raw []byte, plain bool, err error) {
	if c.next() != '"' {
		return nil, false, c.fail("expected a string")
	}
	data, start := c.data, c.pos+1
	plain = true
	for i := start; i < len(data); {
		b := data[i]
		switch {
		case plainByte[b]:
			i++
		case b == '"':
			c.pos = i + 1
			return data[start:i], plain, nil
		case b >= utf8.RuneSelf:
			plain = false
			i++
		case b == '\\':
			plain = false
			c.pos = i
			if i+1 >= len(data) {
				return nil, false, c.fail("unexpected end of input in string escape")
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(data) || hex4(data[i+2:i+6]) < 0 {
					return nil, false, c.fail(`invalid \u escape`)
				}
				i += 6
			default:
				return nil, false, c.fail("invalid string escape")
			}
		default:
			c.pos = i
			return nil, false, c.fail("control character in string")
		}
	}
	c.pos = len(data)
	return nil, false, c.fail("unexpected end of input in string")
}

// hex4 decodes four hex digits, -1 when one is not.
func hex4(s []byte) rune {
	var r rune
	for _, b := range s[:4] {
		switch {
		case '0' <= b && b <= '9':
			b -= '0'
		case 'a' <= b && b <= 'f':
			b -= 'a' - 10
		case 'A' <= b && b <= 'F':
			b -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(b)
	}
	return r
}

// str consumes a string literal and returns its decoded content. The
// result aliases the input or c.scratch and is valid until the next call.
func (c *cursor) str() ([]byte, error) {
	raw, plain, err := c.rawString()
	if err != nil || plain {
		return raw, err
	}
	return c.unquote(raw), nil
}

// unquote decodes the escapes of a string rawString has validated, with
// encoding/json's substitutions: U+FFFD for each invalid UTF-8 byte and
// for a surrogate half without its partner.
func (c *cursor) unquote(raw []byte) []byte {
	out := c.scratch[:0]
	for r := 0; r < len(raw); {
		b := raw[r]
		switch {
		case b == '\\' && raw[r+1] == 'u':
			rr := hex4(raw[r+2:])
			r += 6
			if utf16.IsSurrogate(rr) {
				var lo rune = -1
				if r+6 <= len(raw) && raw[r] == '\\' && raw[r+1] == 'u' {
					lo = hex4(raw[r+2:])
				}
				if dec := utf16.DecodeRune(rr, lo); dec != unicode.ReplacementChar {
					r += 6
					rr = dec
				} else {
					rr = unicode.ReplacementChar
				}
			}
			out = utf8.AppendRune(out, rr)
		case b == '\\':
			switch b = raw[r+1]; b {
			case 'b':
				b = '\b'
			case 'f':
				b = '\f'
			case 'n':
				b = '\n'
			case 'r':
				b = '\r'
			case 't':
				b = '\t'
			}
			out = append(out, b)
			r += 2
		case b < utf8.RuneSelf:
			out = append(out, b)
			r++
		default:
			rr, size := utf8.DecodeRune(raw[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	c.scratch = out
	return out
}

// key consumes an object member's name and the colon after it.
func (c *cursor) key() ([]byte, error) {
	k, err := c.str()
	if err != nil {
		return nil, err
	}
	if c.next() != ':' {
		return nil, c.fail("expected ':' after object key")
	}
	c.pos++
	return k, nil
}

// member steps to the next member of the object entered last and returns
// its name, the cursor at its value; ok is false once the object has
// closed, and on an error.
func (c *cursor) member(first bool) (name []byte, ok bool, err error) {
	if ok, err = c.more('}', first); !ok {
		return nil, false, err
	}
	name, err = c.key()
	return name, err == nil, err
}

// lit consumes the literal word at the cursor.
func (c *cursor) lit(word string) error {
	end := c.pos + len(word)
	if end > len(c.data) || string(c.data[c.pos:end]) != word {
		return c.fail("invalid literal")
	}
	c.pos = end
	return nil
}

// null consumes a null at the cursor, if that is what is there. Every
// typed reader below treats null as "leave the destination alone".
func (c *cursor) null() (bool, error) {
	if c.next() != 'n' {
		return false, nil
	}
	return true, c.lit("null")
}

// number is a scanned JSON number: its text, and its decimal digits
// folded into mant when no more than 19 of them are significant.
type number struct {
	text []byte
	mant uint64
	sig  int  // significant digits folded into mant
	frac int  // digits after the point
	neg  bool // leading '-'
	exp  bool // has an exponent part
}

// number consumes the number at the cursor.
//
//scalana:hot
func (c *cursor) number() (n number, err error) {
	data, i := c.data, c.pos
	if i < len(data) && data[i] == '-' {
		n.neg = true
		i++
	}
	whole := i
	i = n.digits(data, i)
	switch {
	case i == whole:
		c.pos = i
		return n, c.fail("expected a value")
	case i-whole > 1 && data[whole] == '0':
		c.pos = whole + 1
		return n, c.fail("leading zero in number")
	}
	if i < len(data) && data[i] == '.' {
		point := i + 1
		i = n.digits(data, point)
		if n.frac = i - point; n.frac == 0 {
			c.pos = i
			return n, c.fail("expected a digit after the decimal point")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		n.exp = true
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		first := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		if i == first {
			c.pos = i
			return n, c.fail("expected a digit in the exponent")
		}
	}
	n.text = data[c.pos:i]
	c.pos = i
	return n, nil
}

// digits folds the run of decimal digits at data[i:] into the mantissa
// and returns the offset after it.
//
//scalana:hot
func (n *number) digits(data []byte, i int) int {
	for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
		if n.mant != 0 || data[i] != '0' {
			n.mant = n.mant*10 + uint64(data[i]-'0')
			n.sig++
		}
	}
	return i
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// asFloat converts the number as strconv.ParseFloat does; ok is false when
// float64 cannot hold it. A mantissa below 2^53 over an exact power of
// ten is one correctly rounded division (strconv's own fast path), which
// covers the counters and sample times that make up most of a profile.
func (n *number) asFloat() (f float64, ok bool) {
	if !n.exp && n.sig <= 19 && n.mant < 1<<53 && n.frac < len(pow10) {
		f = float64(n.mant) / pow10[n.frac]
		if n.neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(n.text), 64)
	return f, err == nil
}

// asInt converts the number to an integer; ok is false for anything with a
// fraction or an exponent, and for what int64 cannot hold.
func (n *number) asInt() (v int64, ok bool) {
	if n.frac != 0 || n.exp {
		return 0, false
	}
	if n.sig <= 18 {
		if v = int64(n.mant); n.neg {
			v = -v
		}
		return v, true
	}
	v, err := strconv.ParseInt(string(n.text), 10, 64)
	return v, err == nil
}

// readFloat reads a number (or null) into dst.
func (c *cursor) readFloat(dst *float64) error {
	if null, err := c.null(); null {
		return err
	}
	n, err := c.number()
	if err != nil {
		return err
	}
	f, ok := n.asFloat()
	if !ok {
		return c.fail("number out of range for a float field")
	}
	*dst = f
	return nil
}

// readInt64 reads an integer (or null) into dst.
func (c *cursor) readInt64(dst *int64) error {
	if null, err := c.null(); null {
		return err
	}
	n, err := c.number()
	if err != nil {
		return err
	}
	v, ok := n.asInt()
	if !ok {
		return c.fail("number is not an integer the field can hold")
	}
	*dst = v
	return nil
}

// readInt reads an integer (or null) into dst.
func (c *cursor) readInt(dst *int) error {
	v := int64(*dst)
	if err := c.readInt64(&v); err != nil {
		return err
	}
	if int64(int(v)) != v {
		return c.fail("number is not an integer the field can hold")
	}
	*dst = int(v)
	return nil
}

// readBool reads true or false (or null) into dst.
func (c *cursor) readBool(dst *bool) error {
	switch c.next() {
	case 'n':
		return c.lit("null")
	case 't':
		*dst = true
		return c.lit("true")
	case 'f':
		*dst = false
		return c.lit("false")
	}
	return c.fail("expected true or false")
}

// readText reads a string value; null reports a null in its place.
func (c *cursor) readText() (s []byte, null bool, err error) {
	if null, err = c.null(); null {
		return nil, true, err
	}
	s, err = c.str()
	return s, false, err
}

// begin enters the container a field requires, reporting a null in its
// place instead.
func (c *cursor) begin(opener byte) (null bool, err error) {
	switch c.next() {
	case 'n':
		return true, c.lit("null")
	case opener:
		return false, c.enter()
	}
	if opener == '{' {
		return false, c.fail("expected an object")
	}
	return false, c.fail("expected an array")
}

// skip validates and discards one value of any shape. Nesting lives on
// c.open, not on the goroutine stack, so depth costs a byte a level up to
// maxDepth and an error beyond it.
func (c *cursor) skip() error {
	c.open = c.open[:0]
	for {
		switch b := c.next(); b {
		case '{', '[':
			if err := c.enter(); err != nil {
				return err
			}
			closer := b + 2 // '{'+2 == '}', '['+2 == ']'
			if c.next() == closer {
				c.pos++
				c.depth--
				break
			}
			c.open = append(c.open, closer)
			if closer == '}' {
				if _, err := c.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := c.rawString(); err != nil {
				return err
			}
		case 't':
			if err := c.lit("true"); err != nil {
				return err
			}
		case 'f':
			if err := c.lit("false"); err != nil {
				return err
			}
		case 'n':
			if err := c.lit("null"); err != nil {
				return err
			}
		default:
			if _, err := c.number(); err != nil {
				return err
			}
		}
		// A value just ended: close every container it completes, then
		// step to the next sibling.
		for {
			if len(c.open) == 0 {
				return nil
			}
			closer := c.open[len(c.open)-1]
			more, err := c.more(closer, false)
			if err != nil {
				return err
			}
			if more {
				if closer == '}' {
					if _, err := c.key(); err != nil {
						return err
					}
				}
				break
			}
			c.open = c.open[:len(c.open)-1]
		}
	}
}
