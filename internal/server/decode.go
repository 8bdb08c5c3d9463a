package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// maxPooled bounds the body buffers and batch planes kept for reuse, in
// bytes, so one large request or response does not leave megabytes in
// the pools.
const maxPooled = 256 << 10

var (
	bodyPool  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	planePool = sync.Pool{New: func() any {
		// rows is never nil, so {"inputs":[]} decodes as a present,
		// empty batch, as encoding/json decodes it.
		return &plane{vals: make([]float64, 0, 512), rows: make([][]float64, 0, 16)}
	}}
)

// plane holds one decoded explicit batch: every feature in one flat
// slice, with row k = vals[offs[k]:offs[k+1]] capped at its own end so
// that no row can grow into the next.
type plane struct {
	vals []float64
	offs []int
	rows [][]float64
}

// release returns the plane to the pool once nothing reads its rows. A
// nil plane (a body encoding/json decoded) is a no-op.
func (p *plane) release() {
	if p == nil || cap(p.vals)*8 > maxPooled || cap(p.rows)*24 > maxPooled {
		return
	}
	planePool.Put(p)
}

// putBody returns a body buffer to its pool unless it has grown past
// maxPooled.
func putBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooled {
		bodyPool.Put(buf)
	}
}

// errReader replays a body's read error after the bytes read before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readInfer reads and decodes an inference body. The two documented
// shapes go through scanInfer; any other body, and any read error, goes
// to encoding/json over the same bytes followed by the same error, so
// the result and every error text are encoding/json's. An explicit
// batch decoded by the scanner comes back with its plane, which the
// caller releases after the last read of req.Inputs; a single input is
// always its own allocation, because the micro-batcher may still read
// it after a cancelled call returns.
func readInfer(w http.ResponseWriter, r *http.Request) (inferRequest, *plane, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer putBody(buf)
	buf.Reset()
	if n := r.ContentLength; n > 0 && n <= MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, rerr := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if rerr == nil {
		p := planePool.Get().(*plane)
		req, ok := scanInfer(buf.Bytes(), p)
		if ok && req.Inputs != nil {
			return req, p, nil
		}
		p.release()
		if ok {
			return req, nil, nil
		}
	}
	var body io.Reader = bytes.NewReader(buf.Bytes())
	if rerr != nil {
		body = io.MultiReader(body, errReader{rerr})
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req inferRequest
	err := dec.Decode(&req)
	return req, nil, err
}

// scanInfer decodes data when it is exactly {"input":[n,…]} or
// {"inputs":[[n,…],…]}: one lowercase key without escapes, JSON
// whitespace wherever the grammar allows it, and nothing but whitespace
// after the object. A batch decodes into p, a single input into its own
// slice. It reports false for every other body.
func scanInfer(data []byte, p *plane) (req inferRequest, ok bool) {
	s := scanner{data: data}
	if !s.next('{') || !s.next('"') || !s.lit("input") {
		return req, false
	}
	batch := s.lit("s")
	if !s.lit(`"`) || !s.next(':') {
		return req, false
	}
	p.vals, p.offs, p.rows = p.vals[:0], append(p.offs[:0], 0), p.rows[:0]
	switch {
	case !batch:
		if !s.row(p) {
			return req, false
		}
	case !s.next('['):
		return req, false
	case !s.next(']'):
		for {
			if !s.row(p) {
				return req, false
			}
			p.offs = append(p.offs, len(p.vals))
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return req, false
			}
		}
	}
	if !s.next('}') {
		return req, false
	}
	if skipSpace(data, s.pos) != len(data) {
		return req, false
	}
	if !batch {
		req.Input = make([]float64, len(p.vals))
		copy(req.Input, p.vals)
		return req, true
	}
	for k := 1; k < len(p.offs); k++ {
		a, b := p.offs[k-1], p.offs[k]
		p.rows = append(p.rows, p.vals[a:b:b])
	}
	req.Inputs = p.rows
	return req, true
}

// scanner walks a body for scanInfer.
type scanner struct {
	data []byte
	pos  int
}

// next consumes optional whitespace and then c, if c comes next.
func (s *scanner) next(c byte) bool {
	s.pos = skipSpace(s.data, s.pos)
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// lit consumes lit if the body continues with exactly it.
func (s *scanner) lit(lit string) bool {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// row appends one array of numbers to p.vals. An integer of at most 15
// digits, with an optional '-' and no leading zero, that ends at ',' or
// ']' is read inline: it is exact as a float64, and it is the form
// one-hot and integer-coded features take. Every other number goes to
// number and its grammar checks.
func (s *scanner) row(p *plane) bool {
	if !s.next('[') {
		return false
	}
	if s.next(']') {
		return true
	}
	d, i, vals := s.data, s.pos, p.vals
	for {
		i = skipSpace(d, i)
		j := i
		if j < len(d) && d[j] == '-' {
			j++
		}
		k, mant := j, uint64(0)
		for ; k < len(d) && isDigit(d[k]); k++ {
			mant = mant*10 + uint64(d[k]-'0')
		}
		if n := k - j; n > 0 && n <= 15 && (n == 1 || d[j] != '0') && k < len(d) && (d[k] == ',' || d[k] == ']') {
			v := float64(mant)
			if j != i {
				v = -v // after the conversion, so that -0 stays -0
			}
			vals = append(vals, v)
			i = k
		} else {
			v, j, ok := number(d, i)
			if !ok {
				return false
			}
			vals = append(vals, v)
			if i = skipSpace(d, j); i == len(d) {
				return false
			}
		}
		c := d[i]
		i++
		if c == ']' {
			s.pos, p.vals = i, vals
			return true
		}
		if c != ',' {
			return false
		}
	}
}

// number reads one JSON number at d[i:] and returns it with the index
// past it. It checks the grammar itself, because strconv.ParseFloat
// also accepts Inf, NaN, hex floats, '_' and a leading '+'; ParseFloat's
// range error declines.
func number(d []byte, i int) (float64, int, bool) {
	start := i
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && isDigit(d[i]):
		i = digitsFrom(d, i)
	default:
		return 0, i, false
	}
	if i < len(d) && d[i] == '.' {
		if i = digitsFrom(d, i+1); i < 0 {
			return 0, i, false
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i = digitsFrom(d, i); i < 0 {
			return 0, i, false
		}
	}
	v, err := strconv.ParseFloat(string(d[start:i]), 64)
	return v, i, err == nil
}

func isDigit(c byte) bool { return c-'0' < 10 }

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(d []byte, i int) int {
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
		i++
	}
	return i
}

// digitsFrom returns the index past one or more digits starting at i, or
// -1 if there is no digit at i.
func digitsFrom(d []byte, i int) int {
	j := i
	for j < len(d) && isDigit(d[j]) {
		j++
	}
	if j == i {
		return -1
	}
	return j
}
