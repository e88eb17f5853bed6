package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strconv"
)

// The tensor codec (DESIGN.md §9): the JSON bodies that carry tensors —
// PredictRequest, TensorJSON, RolloutFrame — are written by an
// appender and read by a one-pass scanner, both with their own float
// text (float.go), because encoding/json's reflection costs more than
// the forward passes the bodies feed. The wire format does not change
// by a byte: the encoder reproduces encoding/json's output exactly, and
// the scanner accepts only the plain layout clients actually send (any
// whitespace, keys in any order) and hands anything else — unknown,
// escaped or duplicate key, null, odd number, trailing bytes — to
// encoding/json, which stays the one authority on errors and on
// odd-but-legal input, and is the oracle the fuzz targets compare
// against.

// ErrNonFiniteOutput reports a frame holding NaN or ±Inf, which JSON
// cannot carry: a typed 500 on predict, a terminal in-stream record on
// rollout.
var ErrNonFiniteOutput = errors.New("serve: non-finite value in output frame")

// stdDecode is the fallback and the oracle: the first JSON value of b,
// decoded as the handlers always have (json.Decoder ignores what
// follows the value).
func stdDecode(b []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// DecodePredictRequest decodes a JSON predict or POST-rollout body: the
// scanner for the plain layout, encoding/json for everything else. The
// result shares nothing with b.
func DecodePredictRequest(b []byte) (PredictRequest, error) {
	return decode(b, (*scanner).predictRequest)
}

func decodeTensorJSON(b []byte) (TensorJSON, error) { return decode(b, (*scanner).tensor) }

func decodeRolloutFrame(b []byte) (RolloutFrame, error) { return decode(b, (*scanner).rolloutFrame) }

// decode is the fallback rule: the scanner's value if it took the
// whole of b, else whatever encoding/json makes of the same bytes.
func decode[T any](b []byte, parse func(*scanner) (T, bool)) (T, error) {
	if v, ok := scan(b, parse); ok {
		return v, nil
	}
	var v T
	return v, stdDecode(b, &v)
}

// scan runs one of the scanner's parsers over b, which must hold that
// one value and whitespace only.
func scan[T any](b []byte, parse func(*scanner) (T, bool)) (T, bool) {
	s := scanner{b: b}
	v, ok := parse(&s)
	return v, ok && s.atEnd()
}

// scanner is a cursor over one body. Every method reports false on
// input it does not expect; the caller then discards what was scanned
// and falls back, so no method needs to describe the problem.
type scanner struct {
	b []byte
	i int
}

// skip advances past JSON whitespace.
func (s *scanner) skip() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and consumes c if it is the next byte.
func (s *scanner) next(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// atEnd reports whether only whitespace is left.
func (s *scanner) atEnd() bool {
	s.skip()
	return s.i == len(s.b)
}

// object walks {"key":value,…}, calling field with each key; field
// consumes the value and refuses keys it does not know, so a repeated
// key (encoding/json: last one wins) is caught here, once.
func (s *scanner) object(field func(key string) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var known [4]string
	seen := known[:0]
	for {
		key, ok := s.plainString()
		if !ok || slices.Contains(seen, key) || !s.next(':') || !field(key) {
			return false
		}
		seen = append(seen, key)
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// array walks [value,…], calling elem at the start of each value.
func (s *scanner) array(elem func() bool) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.next(',') {
			return s.next(']')
		}
	}
}

// plainString reads a string of printable ASCII without escapes — all
// a key or a request ID ever is; the rest is encoding/json's.
func (s *scanner) plainString() (string, bool) {
	if !s.next('"') {
		return "", false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return string(s.b[start : s.i-1]), true
		case c == '\\' || c < ' ' || c >= 0x7f:
			return "", false
		}
	}
	return "", false
}

// uintDigits is how many decimal digits always fit an int.
const uintDigits = 9 * strconv.IntSize / 32

// uint reads a non-negative integer in JSON's grammar — no sign, no
// leading zero — short enough that it cannot overflow.
func (s *scanner) uint() (int, bool) {
	s.skip()
	start, n := s.i, 0
	for ; s.i < len(s.b) && isDigit(s.b[s.i]); s.i++ {
		n = n*10 + int(s.b[s.i]-'0')
	}
	digits := s.i - start
	if digits == 0 || digits > uintDigits || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	return n, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// float reads one number. Its value is strconv.ParseFloat's, as in
// encoding/json, so the bits agree: decimal.value's when the fast paths
// decide, ParseFloat's on the token otherwise. Out of range is an error
// there and a fallback here.
func (s *scanner) float() (float64, bool) {
	d, tok, ok := s.number()
	if !ok {
		return 0, false
	}
	if f, ok := d.value(); ok {
		return f, true
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// number reads one number token, checked against JSON's grammar —
// strconv.ParseFloat alone also takes "+1", ".5", "0x1p-2", "Inf" and
// "1_0" — and collects the decimal it spells in the same pass.
func (s *scanner) number() (d decimal, tok []byte, ok bool) {
	s.skip()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		d.neg = true
		i++
	}
	intStart := i
	for ; i < len(b) && isDigit(b[i]); i++ {
		d.digit(b[i])
	}
	if i == intStart || (i > intStart+1 && b[intStart] == '0') {
		return d, nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for d.nd <= maxMantDigits-8 && len(b)-i >= 8 {
			if !d.digits8(binary.LittleEndian.Uint64(b[i:])) {
				break
			}
			i += 8
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			d.digit(b[i])
			d.exp--
		}
		if i == fracStart {
			return d, nil, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || neg) {
			i++
		}
		expStart, e := i, 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 10000 { // past any float64, as strconv clamps it
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == expStart {
			return d, nil, false
		}
		if neg {
			e = -e
		}
		d.exp += e
	}
	tok, s.i = b[s.i:i], i
	return d, tok, true
}

func (s *scanner) predictRequest() (req PredictRequest, ok bool) {
	ok = s.object(func(key string) bool {
		if key != "states" {
			return false
		}
		req.States = []TensorJSON{}
		return s.array(func() bool {
			t, ok := s.tensor()
			req.States = append(req.States, t)
			return ok
		})
	})
	return req, ok
}

func (s *scanner) tensor() (t TensorJSON, ok bool) {
	ok = s.object(func(key string) bool {
		switch key {
		case "shape":
			t.Shape = []int{}
			return s.array(func() bool {
				d, ok := s.uint()
				t.Shape = append(t.Shape, d)
				return ok
			})
		case "data":
			// Size the slice once from the shape when it came first,
			// but never beyond what is left of the body could carry (a
			// value and its separator take two bytes): the shape is a
			// claim, the bytes are a fact.
			want, _ := t.size()
			t.Data = make([]float64, 0, min(want, (len(s.b)-s.i)/2))
			return s.array(func() bool {
				f, ok := s.float()
				t.Data = append(t.Data, f)
				return ok
			})
		}
		return false
	})
	return t, ok
}

func (s *scanner) rolloutFrame() (f RolloutFrame, ok bool) {
	ok = s.object(func(key string) (ok bool) {
		switch key {
		case "step":
			f.Step, ok = s.uint()
		case "request_id":
			f.RequestID, ok = s.plainString()
		case "frame":
			f.Frame = new(TensorJSON)
			*f.Frame, ok = s.tensor()
		} // "error" ends a stream: rare, free text, encoding/json's
		return ok
	})
	return f, ok
}

// jsonSizeHint is a slab size that holds n encoded values, each with
// its separator, without growing.
func jsonSizeHint(n int) int { return 256 + (maxFloatText+1)*n }

// AppendTensorJSON appends t as encoding/json writes it (without the
// newline json.Encoder adds), nil slices as null included. A non-finite
// value is ErrNonFiniteOutput (encoding/json's UnsupportedValueError),
// found before the caller commits a status.
func AppendTensorJSON(dst []byte, t TensorJSON) ([]byte, error) {
	dst = append(dst, `{"shape":`...)
	if t.Shape == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, d := range t.Shape {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(d), 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"data":`...)
	if t.Data == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, x := range t.Data {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return dst, ErrNonFiniteOutput
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, x)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendPredictRequest appends req and the newline json.Encoder ends
// every value with.
func appendPredictRequest(dst []byte, req PredictRequest) ([]byte, error) {
	dst = append(dst, `{"states":`...)
	if req.States == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, t := range req.States {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendTensorJSON(dst, t); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}', '\n'), nil
}

// appendRolloutFrame appends one NDJSON line of a rollout stream.
// Records without a frame (the terminal error record) and the strings
// are encoding/json's: escaping rules are its business.
func appendRolloutFrame(dst []byte, f RolloutFrame) ([]byte, error) {
	if f.Frame == nil || f.Error != "" {
		line, err := json.Marshal(f)
		return append(append(dst, line...), '\n'), err
	}
	dst = append(dst, `{"step":`...)
	dst = strconv.AppendInt(dst, int64(f.Step), 10)
	if f.RequestID != "" {
		id, err := json.Marshal(f.RequestID)
		if err != nil {
			return dst, err
		}
		dst = append(append(dst, `,"request_id":`...), id...)
	}
	dst = append(dst, `,"frame":`...)
	dst, err := AppendTensorJSON(dst, *f.Frame)
	return append(dst, '}', '\n'), err
}
