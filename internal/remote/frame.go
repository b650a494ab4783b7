package remote

// The measurement frames off the reflection path. Each end writes its
// per-measurement line (a request, a success response) into a reused
// buffer, byte for byte what json.Encoder writes for it, and reads the
// peer's line on a strict fast path that accepts only that canonical
// form. Anything else — whitespace, another key order, null, escapes,
// an out-of-range number, a value spread over lines or run together with
// the next, garbage — goes to an encoding/json decoder that owns the
// rest of the connection, so what each end accepts, rejects and answers
// is what encoding/json made of the stream.

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"optassign/internal/jsonfmt"
)

// appendRequest appends Request{ID: id, Ctx: ctx}'s line: json.Encoder's
// bytes, a nil ctx as null.
func appendRequest(dst []byte, id uint64, ctx []int) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	dst = append(dst, `,"ctx":`...)
	dst = jsonfmt.AppendInts(dst, ctx)
	return append(dst, "}\n"...)
}

// appendResponse appends the success Response{ID: id, Perf: perf}'s line:
// json.Encoder's bytes, perf omitted when zero. perf must be finite.
func appendResponse(dst []byte, id uint64, perf float64) []byte {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, id, 10)
	if perf != 0 {
		dst = append(dst, `,"perf":`...)
		dst = jsonfmt.AppendFloat(dst, perf)
	}
	return append(dst, "}\n"...)
}

// A fast-path parse returns the length of the canonical object at the
// front of its bytes, or one of these.
const (
	// frameShort: the bytes are a proper prefix of a canonical object.
	frameShort = 0
	// frameOther: no canonical object starts with these bytes.
	frameOther = -1
)

// frameBufSize bounds a fast-path frame; a longer one falls back.
const frameBufSize = 4096

// frameReader reads one end's incoming frames off a connection: each
// canonical object on the fast path, everything from the first other
// input on through dec. It is also the io.Reader the fallback decoder
// reads: the buffered bytes, then the first read error or the connection.
type frameReader struct {
	src  io.Reader
	buf  []byte // unread bytes are buf[r:w]
	r, w int
	err  error // the first read error, replayed to the fallback
	// nl is set when a fast frame ended at the end of the buffered
	// bytes: a '\n' arriving next is that frame's line end.
	nl   bool
	ints []int // scratch for a request's ctx
	dec  *json.Decoder
}

func newFrameReader(src io.Reader) *frameReader {
	return &frameReader{src: src, buf: make([]byte, frameBufSize)}
}

// Read hands the fallback decoder the buffered bytes, then the stream.
func (f *frameReader) Read(p []byte) (int, error) {
	if f.r < f.w {
		n := copy(p, f.buf[f.r:f.w])
		f.r += n
		return n, nil
	}
	if f.err != nil {
		return 0, f.err
	}
	return f.src.Read(p)
}

// unread puts bytes a decoder read but did not consume back in front of
// the buffered ones.
func (f *frameReader) unread(b []byte) {
	n := len(b) + f.w - f.r
	buf := f.buf
	if n > len(buf) {
		buf = make([]byte, n)
	}
	copy(buf[len(b):], f.buf[f.r:f.w])
	copy(buf, b)
	f.buf, f.r, f.w = buf, 0, n
}

// decodeJSON decodes one value through encoding/json and returns to the
// fast path after it, as if that decoder had read on; a '\n' next ends
// the value's line. The client reads the hello with it.
func (f *frameReader) decodeJSON(v any) error {
	dec := json.NewDecoder(f)
	if err := dec.Decode(v); err != nil {
		f.dec = dec
		return err
	}
	rest, _ := io.ReadAll(dec.Buffered())
	f.unread(rest)
	f.nl = true
	return nil
}

// fill reads more of the stream into the buffer. It returns false when
// nothing more can be buffered: a read failed, or the buffer is full.
func (f *frameReader) fill() bool {
	if f.err != nil {
		return false
	}
	if f.r > 0 {
		f.w = copy(f.buf, f.buf[f.r:f.w])
		f.r = 0
	}
	if f.w == len(f.buf) {
		return false
	}
	n, err := f.src.Read(f.buf[f.w:])
	f.w += n
	f.err = err
	return n > 0 || err == nil
}

// next consumes the next frame when parse accepts it as canonical and
// reports whether it did. Once it returns false the fallback decoder
// f.dec owns the stream, and the caller decodes the frame with it.
// A canonical object is followed by its '\n'; one followed by anything
// else is left to the decoder, and one at the end of the buffered bytes
// is taken at once, as encoding/json takes an object at its closing
// brace, with the '\n' expected next.
func (f *frameReader) next(parse func([]byte) int) bool {
	for f.dec == nil {
		b := f.buf[f.r:f.w]
		n := frameShort
		switch {
		case f.nl && len(b) > 0 && b[0] == '\n':
			f.r++
			f.nl = false
			continue
		case f.nl && len(b) > 0:
			n = frameOther
		case !f.nl:
			n = parse(b)
		}
		switch {
		case n > 0 && n == len(b):
			f.r += n
			f.nl = true
			return true
		case n > 0 && b[n] == '\n':
			f.r += n + 1
			return true
		case n == frameShort && f.fill():
			continue
		}
		f.dec = json.NewDecoder(f)
	}
	return false
}

// readRequest reads the next request into req.
func (f *frameReader) readRequest(req *Request) error {
	if f.next(func(b []byte) int { return f.parseRequest(b, req) }) {
		return nil
	}
	*req = Request{}
	return f.dec.Decode(req)
}

// readResponse reads the next response into resp.
func (f *frameReader) readResponse(resp *Response) error {
	if f.next(func(b []byte) int { return parseResponse(b, resp) }) {
		return nil
	}
	*resp = Response{}
	return f.dec.Decode(resp)
}

// parseRequest parses the canonical request {"id":N,"ctx":[C,...]} at the
// front of b into req, giving it a ctx of its own: a runner may keep the
// assignment it measures.
func (f *frameReader) parseRequest(b []byte, req *Request) int {
	i := scanLit(b, 0, `{"id":`)
	if i <= 0 {
		return i
	}
	id, i := scanUint(b, i)
	if i <= 0 {
		return i
	}
	if i = scanLit(b, i, `,"ctx":[`); i <= 0 {
		return i
	}
	ints := f.ints[:0]
	if i < len(b) && b[i] == ']' {
		i++
	} else {
		for {
			var c uint64
			if c, i = scanUint(b, i); i <= 0 {
				return i
			}
			if c > math.MaxInt {
				return frameOther
			}
			ints = append(ints, int(c))
			if i == len(b) {
				return frameShort
			}
			if b[i] == ']' {
				i++
				break
			}
			if b[i] != ',' {
				return frameOther
			}
			i++
		}
	}
	f.ints = ints
	if i = scanLit(b, i, `}`); i <= 0 {
		return i
	}
	req.ID = id
	req.Ctx = append(make([]int, 0, len(ints)), ints...)
	return i
}

// parseResponse parses the canonical success response {"id":N,"perf":F}
// or {"id":N} at the front of b into resp.
func parseResponse(b []byte, resp *Response) int {
	i := scanLit(b, 0, `{"id":`)
	if i <= 0 {
		return i
	}
	id, i := scanUint(b, i)
	if i <= 0 {
		return i
	}
	var perf float64
	if i < len(b) && b[i] == ',' {
		if i = scanLit(b, i, `,"perf":`); i <= 0 {
			return i
		}
		if perf, i = scanFloat(b, i); i <= 0 {
			return i
		}
	}
	if i = scanLit(b, i, `}`); i <= 0 {
		return i
	}
	*resp = Response{ID: id, Perf: perf}
	return i
}

// scanLit matches s at b[i:] and returns the index after it, frameShort
// when b ends inside s, or frameOther.
func scanLit(b []byte, i int, s string) int {
	rest := b[i:]
	if len(rest) < len(s) {
		if string(rest) == s[:len(rest)] {
			return frameShort
		}
		return frameOther
	}
	if string(rest[:len(s)]) != s {
		return frameOther
	}
	return i + len(s)
}

// scanUint parses a JSON integer without sign, fraction or exponent at
// b[i:] and returns it with the index after it, or frameShort when b
// ends in it, or frameOther. Twenty digits and more, which might not fit
// a uint64, are left to encoding/json.
func scanUint(b []byte, i int) (uint64, int) {
	var v uint64
	j := i
	for ; j < len(b) && isDigit(b[j]); j++ {
		if j-i == 19 {
			return 0, frameOther
		}
		v = v*10 + uint64(b[j]-'0')
	}
	switch {
	case j == len(b):
		return 0, frameShort
	case j == i, b[i] == '0' && j > i+1:
		return 0, frameOther
	}
	return v, j
}

// scanFloat parses a JSON number at b[i:] and returns the float64
// encoding/json would decode it to with the index after it, or
// frameShort when b ends in it, or frameOther — also for a number out of
// float64's range, which encoding/json refuses.
func scanFloat(b []byte, i int) (float64, int) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j == len(b):
		return 0, frameShort
	case b[j] == '0':
		j++
	case isDigit(b[j]):
		for j < len(b) && isDigit(b[j]) {
			j++
		}
	default:
		return 0, frameOther
	}
	if j < len(b) && b[j] == '.' {
		j++
		if j = scanDigits(b, j); j < 0 {
			return 0, frameOther
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j = scanDigits(b, j); j < 0 {
			return 0, frameOther
		}
	}
	if j == len(b) {
		return 0, frameShort
	}
	f, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return 0, frameOther
	}
	return f, j
}

// scanDigits skips the one or more digits a fraction or exponent needs
// at b[j:]; it returns -1 when another byte comes first.
func scanDigits(b []byte, j int) int {
	k := j
	for j < len(b) && isDigit(b[j]) {
		j++
	}
	if j == k && j < len(b) {
		return -1
	}
	return j
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
