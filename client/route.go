package client

import (
	"encoding/json"
	"math"
	"strconv"
)

// The route answer has one hand-written codec, shared by both serving
// tiers and by RouteByName: it is the one body a read carries, and
// reflection-based encoding/json on it cost about a tenth of a tier
// read's CPU. AppendJSON writes the bytes encoding/json writes, and
// decodeRoute reads them, handing any other shape to encoding/json.

// AppendJSON appends r's JSON encoding to b and returns the extended
// buffer. The bytes are exactly the ones json.NewEncoder(w).Encode(r)
// writes, trailing newline included: the same field order, the same
// omitted zero fields, the same number formatting. Like encoding/json
// it refuses a NaN or infinite number, returning b unchanged and a
// *json.UnsupportedValueError.
func (r Route) AppendJSON(b []byte) ([]byte, error) {
	for _, f := range [...]float64{r.Cost, r.ShortestCost, r.Stretch} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	b = append(b, `{"delivered":`...)
	b = strconv.AppendBool(b, r.Delivered)
	b = append(b, `,"cost":`...)
	b = appendFloat(b, r.Cost)
	b = append(b, `,"hops":`...)
	b = strconv.AppendInt(b, int64(r.Hops), 10)
	b = append(b, `,"headerBits":`...)
	b = strconv.AppendInt(b, r.HeaderBits, 10)
	if r.ShortestCost != 0 {
		b = append(b, `,"shortestCost":`...)
		b = appendFloat(b, r.ShortestCost)
	}
	if r.Stretch != 0 {
		b = append(b, `,"stretch":`...)
		b = appendFloat(b, r.Stretch)
	}
	if r.Version != nil {
		b = append(b, `,"version":`...)
		b = strconv.AppendUint(b, *r.Version, 10)
	}
	return append(b, "}\n"...), nil
}

// appendFloat formats a finite f as encoding/json does (ES6 number to
// string): the shortest 'f' form, switching to 'e' below 1e-6 and from
// 1e21, with a one-digit negative exponent unpadded (e-9, not e-09).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decodeRoute decodes one route answer. The shape AppendJSON writes is
// read in place; any other input (reordered or unknown keys, inner
// whitespace, escapes, null, a malformed body) goes to json.Unmarshal,
// so the value and the error are always the ones json.Unmarshal gives.
func decodeRoute(data []byte) (Route, error) {
	if r, ok := scanRoute(data); ok {
		return r, nil
	}
	var r Route
	err := json.Unmarshal(data, &r)
	return r, err
}

// scanRoute reads data if it is exactly the shape AppendJSON writes,
// trailing whitespace allowed, with every number in range of its
// field; ok is false for anything else.
func scanRoute(data []byte) (r Route, ok bool) {
	s := routeScanner{b: data}
	if !s.lit(`{"delivered":`) {
		return r, false
	}
	switch {
	case s.lit("true"):
		r.Delivered = true
	case s.lit("false"):
	default:
		return r, false
	}
	if !s.lit(`,"cost":`) {
		return r, false
	}
	if r.Cost, ok = s.float(); !ok || !s.lit(`,"hops":`) {
		return r, false
	}
	hops, ok := s.int()
	if !ok || int64(int(hops)) != hops || !s.lit(`,"headerBits":`) {
		return r, false
	}
	r.Hops = int(hops)
	if r.HeaderBits, ok = s.int(); !ok {
		return r, false
	}
	if s.lit(`,"shortestCost":`) {
		if r.ShortestCost, ok = s.float(); !ok {
			return r, false
		}
	}
	if s.lit(`,"stretch":`) {
		if r.Stretch, ok = s.float(); !ok {
			return r, false
		}
	}
	if s.lit(`,"version":`) {
		v, ok := s.uint()
		if !ok {
			return r, false
		}
		r.Version = &v
	}
	if !s.lit("}") {
		return r, false
	}
	for _, c := range data[s.i:] {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return r, false
		}
	}
	return r, true
}

// routeScanner is scanRoute's cursor over the input.
type routeScanner struct {
	b []byte
	i int
}

// lit consumes lit if the input continues with it.
func (s *routeScanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// number consumes one JSON number token and returns it, or nil when
// the input does not continue with one.
func (s *routeScanner) number() []byte {
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	tok := b[s.i:i]
	s.i = i
	return tok
}

// float, int and uint consume a number and parse it as encoding/json
// parses one into a field of that type.
func (s *routeScanner) float() (float64, bool) {
	tok := s.number()
	if tok == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

func (s *routeScanner) int() (int64, bool) {
	tok := s.number()
	if tok == nil {
		return 0, false
	}
	n, err := strconv.ParseInt(string(tok), 10, 64)
	return n, err == nil
}

func (s *routeScanner) uint() (uint64, bool) {
	tok := s.number()
	if tok == nil {
		return 0, false
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	return n, err == nil
}
