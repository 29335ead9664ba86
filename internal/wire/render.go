package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"time"
	"unicode/utf8"

	"repro"
	"repro/internal/db"
)

// AppendExplainResponse appends the explain body for hdr and es to dst and
// returns the extended buffer. The bytes are those json.NewEncoder with
// SetIndent("", "  ") writes for hdr with Tuples set to
// EncodeExplanations(d, es, top) (hdr's own Tuples are ignored), trailing
// newline included, but come from one pass with no reflection and no
// re-indent. Fact content is resolved against d, so the caller holds d's
// read lock. A NaN or infinite float, which JSON cannot carry, is an error,
// as it is for encoding/json; dst then comes back unextended.
//
// Each tuple is written by the code behind AppendExplanation, so
// AppendRenderedResponse over the tuples' AppendExplanation bytes gives the
// same body.
func AppendExplainResponse(dst []byte, d *repro.Database, hdr *ExplainResponse, es []repro.TupleExplanation, top int) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.head(hdr, len(es))
	for i := range es {
		w.next()
		w.explanation(d, &es[i], top)
	}
	return w.tail(dst, hdr, len(es))
}

// AppendRenderedResponse is AppendExplainResponse for tuples rendered
// beforehand: tuples[i] holds the AppendExplanation bytes of the i-th
// explanation, which are spliced between a freshly written header and
// footer. It reads no database, so the caller needs no lock; the tuples'
// fact content is that of the state they were rendered from.
func AppendRenderedResponse(dst []byte, hdr *ExplainResponse, tuples [][]byte) ([]byte, error) {
	w := jsonWriter{b: dst}
	w.head(hdr, len(tuples))
	for _, t := range tuples {
		w.next()
		w.b = append(w.b, t...)
	}
	return w.tail(dst, hdr, len(tuples))
}

// tupleDepth is the nesting depth of an explained tuple in an explain body:
// inside the top-level object and its "tuples" array.
const tupleDepth = 2

// AppendExplanation appends one explained tuple exactly as an explain body
// holds it, its ranking cut to top: from its opening brace to its closing
// one, indented for its depth in the "tuples" array, without the separator
// before it. Fact content is resolved against d, so the caller holds d's
// read lock. A NaN or infinite float is an error; dst then comes back
// unextended.
func AppendExplanation(dst []byte, d *repro.Database, e *repro.TupleExplanation, top int) ([]byte, error) {
	w := jsonWriter{b: dst, depth: tupleDepth}
	w.explanation(d, e, top)
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// head writes an explain body up to its tuples: the header members, then
// the "tuples" key and, for n > 0, the array's opening bracket. An empty
// array is written whole.
func (w *jsonWriter) head(hdr *ExplainResponse, n int) {
	w.open('{')
	if hdr.Dataset != "" {
		w.key("dataset")
		w.str(hdr.Dataset)
	}
	w.key("query")
	w.str(hdr.Query)
	w.key("pooled")
	w.b = strconv.AppendBool(w.b, hdr.Pooled)
	w.key("elapsed_ms")
	w.float(hdr.ElapsedMs)
	w.key("tuples")
	if n == 0 {
		w.b = append(w.b, "[]"...)
	} else {
		w.open('[')
	}
}

// tail closes the tuples array head opened for n tuples and writes the
// footer members and the closing newline. It returns the body, or dst and
// the first error.
func (w *jsonWriter) tail(dst []byte, hdr *ExplainResponse, n int) ([]byte, error) {
	if n > 0 {
		w.close(']')
	}
	if hdr.RequestID != "" {
		w.key("request_id")
		w.str(hdr.RequestID)
	}
	if hdr.Trace != nil {
		// The trace's attributes are open-ended, so encoding/json renders
		// it, indented as a member of the top-level object.
		w.key("trace")
		blob, err := json.MarshalIndent(hdr.Trace, "  ", "  ")
		if err != nil {
			return dst, err
		}
		w.b = append(w.b, blob...)
	}
	w.close('}')
	w.b = append(w.b, '\n')
	if w.err != nil {
		return dst, w.err
	}
	return w.b, nil
}

// explanation writes one tuple's explanation, its ranking cut to top.
func (w *jsonWriter) explanation(d *repro.Database, e *repro.TupleExplanation, top int) {
	w.open('{')
	w.key("tuple")
	w.tuple(e.Tuple)
	w.key("method")
	w.str(e.Method.String())
	if e.Method == repro.MethodApprox {
		w.key("approximate")
		w.b = append(w.b, "true"...)
	}
	if e.Samples != 0 {
		w.key("samples")
		w.b = strconv.AppendInt(w.b, int64(e.Samples), 10)
	}
	if e.DegradedCause != "" {
		w.key("degraded_cause")
		w.str(e.DegradedCause)
	}
	w.key("num_facts")
	w.b = strconv.AppendInt(w.b, int64(e.NumFacts), 10)
	w.key("elapsed_ms")
	w.float(float64(e.Elapsed) / float64(time.Millisecond))
	w.key("facts")
	ranking := e.Ranking
	if top > 0 && top < len(ranking) {
		ranking = ranking[:top]
	}
	if len(ranking) == 0 {
		w.b = append(w.b, "[]"...)
	} else {
		w.open('[')
		for _, id := range ranking {
			w.next()
			w.fact(d, e, id)
		}
		w.close(']')
	}
	w.close('}')
}

// fact writes one ranked fact: a fact deleted since the explanation was
// computed keeps its ID with an empty relation and a null tuple.
func (w *jsonWriter) fact(d *repro.Database, e *repro.TupleExplanation, id repro.FactID) {
	w.open('{')
	w.key("id")
	w.b = strconv.AppendInt(w.b, int64(id), 10)
	f := d.Fact(id)
	w.key("relation")
	if f != nil {
		w.str(f.Relation)
		w.key("tuple")
		w.tuple(f.Tuple)
	} else {
		w.b = append(w.b, `""`...)
		w.key("tuple")
		w.b = append(w.b, "null"...)
	}
	if e.Method == repro.MethodExact {
		w.key("value_rat")
		w.b = append(w.b, '"')
		w.b = appendRat(w.b, e.Values[id])
		w.b = append(w.b, '"')
	}
	w.key("score")
	w.float(e.Score(id))
	if e.Method == repro.MethodApprox {
		est := e.Approx[id]
		w.key("ci_low")
		w.float(est.CILow)
		w.key("ci_high")
		w.float(est.CIHigh)
	}
	w.close('}')
}

// tuple writes a tuple's values as EncodeTuple renders them.
func (w *jsonWriter) tuple(t repro.Tuple) {
	if len(t) == 0 {
		w.b = append(w.b, "[]"...)
		return
	}
	w.open('[')
	for _, v := range t {
		w.next()
		switch v.Kind() {
		case db.KindInt:
			w.b = strconv.AppendInt(w.b, v.AsInt(), 10)
		case db.KindFloat:
			if f := v.AsFloat(); math.IsNaN(f) || math.IsInf(f, 0) {
				w.fail(f)
			} else {
				w.b = appendFloatValue(w.b, f)
			}
		default:
			w.str(v.AsString())
		}
	}
	w.close(']')
}

// jsonWriter appends JSON laid out as encoding/json's indenter lays it out
// with no prefix and a two-space indent: every member and element on a line
// of its own, "key": value, and an empty array as [].
type jsonWriter struct {
	b     []byte
	depth int
	// first says no member or element has been written at this depth yet.
	first bool
	err   error
}

func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends a non-empty object or array.
func (w *jsonWriter) close(c byte) {
	w.depth--
	w.newline()
	w.b = append(w.b, c)
	w.first = false
}

func (w *jsonWriter) newline() {
	w.b = append(w.b, '\n')
	for range w.depth {
		w.b = append(w.b, ' ', ' ')
	}
}

// next starts a member or element on its own line.
func (w *jsonWriter) next() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.first = false
	w.newline()
}

// key starts a member; k needs no escaping.
func (w *jsonWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *jsonWriter) str(s string) { w.b = appendString(w.b, s) }

// float writes f in encoding/json's ES6 number form.
func (w *jsonWriter) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		w.fail(f)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// ES6 writes 1e-7 where strconv writes 1e-07.
		n := len(w.b)
		if n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
		}
	}
}

// fail records that f cannot be written; the body is then discarded.
func (w *jsonWriter) fail(f float64) {
	if w.err == nil {
		w.err = fmt.Errorf("wire: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
}

// appendFloatValue appends a db.Float the way EncodeValue renders it: the
// shortest 'g' form, with ".0" added to an integral value so it decodes
// back to a float.
func appendFloatValue(dst []byte, f float64) []byte {
	n := len(dst)
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	for _, c := range dst[n:] {
		if c == '.' || c == 'e' || c == 'E' {
			return dst
		}
	}
	return append(dst, ".0"...)
}

// appendRat appends r in big.Rat's RatString form ("43/105", or "2" for an
// integer).
func appendRat(dst []byte, r *big.Rat) []byte {
	dst = appendBigInt(dst, r.Num())
	if r.IsInt() {
		return dst
	}
	return appendBigInt(append(dst, '/'), r.Denom())
}

func appendBigInt(dst []byte, x *big.Int) []byte {
	if x.IsInt64() {
		return strconv.AppendInt(dst, x.Int64(), 10)
	}
	return x.Append(dst, 10)
}

// appendString appends s as a JSON string escaped as encoding/json escapes
// it: quote and backslash, the short escapes \b \f \n \r \t, other control
// bytes and the HTML characters < > & as \u00XX, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
