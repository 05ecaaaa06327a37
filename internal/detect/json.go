package detect

// JSON wire format for detection reports. Reports cross process
// boundaries in two places — the scalana-synth accuracy harness writes
// them for CI gates, and scripts consume scalana-detect output — so the
// format must be deterministic (stable field order, sorted scale lists)
// and total (non-finite floats survive the trip: IEEE specials encode as
// the strings "inf", "-inf", "nan", which encoding/json would otherwise
// reject).
//
// EncodeJSON is a hand-written, append-based writer. Its byte contract is
// what json.MarshalIndent(dto, "", " ") wrote for the reflection DTO it
// replaced, which survives as the test-only encodeOracle:
//   - fields in declaration order; "kind", "name", "file" and a zero
//     "line" of a vertex, and an empty "times", "outlier_ranks", "steps",
//     "cause" or top-level list, are left out, so a path with neither
//     steps nor cause is {} and a vertex the report holds only by key is
//     {"key": ...};
//   - one space of indent a level, a newline before every member, and
//     `": "` after every key;
//   - floats as encoding/json spells them: strconv 'f', or 'e' when
//     the magnitude is below 1e-6 or at least 1e21 (exponent without a
//     leading zero), -0 as -0, and the specials as "inf", "-inf", "nan";
//   - strings escaped as encoding/json escapes them: \" \\ \b \f \n \r \t,
//     other control bytes and the HTML-unsafe <, >, & as \u00XX, U+2028
//     and U+2029 as \u2028 and \u2029, and each invalid UTF-8 byte as
//     \ufffd;
//   - each non-scalable vertex's times sorted by np.

import (
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"scalana/internal/psg"
)

// WireFloat is a float64 that survives JSON encoding even when
// non-finite: +Inf, -Inf, and NaN marshal as the strings "inf", "-inf",
// and "nan" (encoding/json errors on the bare values).
type WireFloat float64

// MarshalJSON implements json.Marshaler.
func (f WireFloat) MarshalJSON() ([]byte, error) {
	// 32 bytes hold the longest spelling (25), so the float is appended
	// in one allocation rather than grown into one.
	return appendWireFloat(make([]byte, 0, 32), float64(f)), nil
}

// VertexRefJSON identifies one PSG vertex on the wire: the stable key
// plus enough position information to be useful without the graph.
type VertexRefJSON struct {
	Key  string `json:"key"`
	Kind string `json:"kind,omitempty"`
	Name string `json:"name,omitempty"`
	File string `json:"file,omitempty"`
	Line int    `json:"line,omitempty"`
}

// appendWireFloat appends f as encoding/json writes a float64, or as a
// quoted "inf", "-inf" or "nan".
func appendWireFloat(b []byte, f float64) []byte {
	switch {
	case math.IsInf(f, 1):
		return append(b, `"inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-inf"`...)
	case math.IsNaN(f):
		return append(b, `"nan"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7, as encoding/json writes it.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted and escaped as encoding/json does with
// HTML escaping on.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// writer appends indented JSON. first is set while the innermost open
// object or array has no member yet, so its close stays on the line.
type writer struct {
	b     []byte
	depth int
	first bool
}

func (w *writer) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

func (w *writer) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

func (w *writer) newline() {
	w.b = append(w.b, '\n')
	for range w.depth {
		w.b = append(w.b, ' ')
	}
}

// member starts an array element or an object member.
func (w *writer) member() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// key starts an object member; name needs no escaping.
func (w *writer) key(name string) {
	w.member()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *writer) int(name string, v int) {
	w.key(name)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *writer) float(name string, f float64) {
	w.key(name)
	w.b = appendWireFloat(w.b, f)
}

func (w *writer) str(name, s string) {
	w.key(name)
	w.b = appendString(w.b, s)
}

func (w *writer) strOmitEmpty(name, s string) {
	if s != "" {
		w.str(name, s)
	}
}

// vertex writes a vertex reference from a live vertex (preferred) or a
// bare key.
func (w *writer) vertex(v *psg.Vertex, key string) {
	w.key("vertex")
	w.open('{')
	if v == nil {
		w.str("key", key)
		w.close('}')
		return
	}
	w.str("key", v.Key)
	w.strOmitEmpty("kind", v.Kind.String())
	w.strOmitEmpty("name", v.Name)
	w.strOmitEmpty("file", v.Pos.File)
	if v.Pos.Line != 0 {
		w.int("line", v.Pos.Line)
	}
	w.close('}')
}

func (w *writer) cause(c *Cause) {
	w.open('{')
	w.vertex(c.Vertex, c.VertexKey)
	w.float("score", c.Score)
	w.float("share", c.Share)
	w.float("imbalance", c.Imbalance)
	w.int("paths", c.Paths)
	w.close('}')
}

// scratch keeps EncodeJSON's working buffers between calls, so a report
// is written into a buffer that has grown before and copied out at its
// exact length. It is a small free list rather than a sync.Pool, which
// empties at every other collection: a caller that allocates heavily
// between reports would grow a fresh buffer for each. A buffer above
// maxScratch is not kept.
var scratch = make(chan []byte, 4)

const maxScratch = 1 << 20

// EncodeJSON serializes the report deterministically (indented, scale
// lists sorted by np). The result has room for one more byte, so a
// caller's trailing newline does not copy it.
func (rep *Report) EncodeJSON() ([]byte, error) {
	var w writer
	select {
	case w.b = <-scratch:
		w.b = w.b[:0]
	default:
	}
	w.open('{')
	w.int("np", rep.NP)
	if len(rep.NonScalable) > 0 {
		w.key("non_scalable")
		w.open('[')
		var npBuf [32]int // room for every scale a query may name
		for i := range rep.NonScalable {
			ns := &rep.NonScalable[i]
			w.member()
			w.open('{')
			w.vertex(ns.Vertex, ns.VertexKey)
			w.float("model_a", ns.Model.A)
			w.float("model_b", ns.Model.B)
			w.float("model_r2", ns.Model.R2)
			w.float("share", ns.Share)
			if len(ns.Times) > 0 {
				nps := npBuf[:0]
				for np := range ns.Times {
					nps = append(nps, np)
				}
				slices.Sort(nps)
				w.key("times")
				w.open('[')
				for _, np := range nps {
					w.member()
					w.open('{')
					w.int("np", np)
					w.float("time", ns.Times[np])
					w.close('}')
				}
				w.close(']')
			}
			w.close('}')
		}
		w.close(']')
	}
	if len(rep.Abnormal) > 0 {
		w.key("abnormal")
		w.open('[')
		for i := range rep.Abnormal {
			ab := &rep.Abnormal[i]
			w.member()
			w.open('{')
			w.vertex(ab.Vertex, ab.VertexKey)
			w.float("ratio", ab.Ratio)
			if len(ab.OutlierRanks) > 0 {
				w.key("outlier_ranks")
				w.open('[')
				for _, r := range ab.OutlierRanks {
					w.member()
					w.b = strconv.AppendInt(w.b, int64(r), 10)
				}
				w.close(']')
			}
			w.float("share", ab.Share)
			w.close('}')
		}
		w.close(']')
	}
	if len(rep.Paths) > 0 {
		w.key("paths")
		w.open('[')
		for i := range rep.Paths {
			p := &rep.Paths[i]
			w.member()
			w.open('{')
			if len(p.Steps) > 0 {
				w.key("steps")
				w.open('[')
				for j := range p.Steps {
					st := &p.Steps[j]
					w.member()
					w.open('{')
					w.vertex(st.Vertex, st.VertexKey)
					w.int("rank", st.Rank)
					w.str("via", string(st.Via))
					w.float("wait", st.Wait)
					w.close('}')
				}
				w.close(']')
			}
			if p.Cause != nil {
				w.key("cause")
				w.cause(p.Cause)
			}
			w.close('}')
		}
		w.close(']')
	}
	if len(rep.Causes) > 0 {
		w.key("causes")
		w.open('[')
		for i := range rep.Causes {
			w.member()
			w.cause(&rep.Causes[i])
		}
		w.close(']')
	}
	w.close('}')
	out := make([]byte, len(w.b), len(w.b)+1)
	copy(out, w.b)
	if cap(w.b) <= maxScratch {
		select {
		case scratch <- w.b:
		default:
		}
	}
	return out, nil
}
