package remote

// The hand-framed codec against encoding/json: the encoders write
// json.Encoder's bytes, and a frameReader yields, frame for frame, what a
// json.Decoder reading the same stream yields — whichever way the stream
// is split into reads.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"
)

// TestWireGolden pins the exact request and response lines.
func TestWireGolden(t *testing.T) {
	for _, c := range []struct {
		got, want string
	}{
		{string(appendRequest(nil, 1, []int{0, 1, 2})), `{"id":1,"ctx":[0,1,2]}` + "\n"},
		{string(appendRequest(nil, 18446744073709551615, []int{63, 8, 17, 0})), `{"id":18446744073709551615,"ctx":[63,8,17,0]}` + "\n"},
		{string(appendRequest(nil, 7, []int{})), `{"id":7,"ctx":[]}` + "\n"},
		{string(appendRequest(nil, 7, nil)), `{"id":7,"ctx":null}` + "\n"},
		{string(appendResponse(nil, 1, 2.5e9)), `{"id":1,"perf":2500000000}` + "\n"},
		{string(appendResponse(nil, 2, 1234567.890625)), `{"id":2,"perf":1234567.890625}` + "\n"},
		{string(appendResponse(nil, 3, 1e21)), `{"id":3,"perf":1e+21}` + "\n"},
		{string(appendResponse(nil, 4, 1e-7)), `{"id":4,"perf":1e-7}` + "\n"},
		{string(appendResponse(nil, 5, -0.5)), `{"id":5,"perf":-0.5}` + "\n"},
		{string(appendResponse(nil, 6, 0)), `{"id":6}` + "\n"},
		{string(appendResponse(nil, 6, math.Copysign(0, -1))), `{"id":6}` + "\n"},
	} {
		if c.got != c.want {
			t.Errorf("line %q, want %q", c.got, c.want)
		}
	}
}

// checkEncoders fails t unless the encoders write json.Encoder's bytes.
func checkEncoders(t *testing.T, id uint64, ctx []int, perf float64) {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	if err := enc.Encode(Request{ID: id, Ctx: ctx}); err != nil {
		t.Fatal(err)
	}
	if got := appendRequest(nil, id, ctx); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendRequest(%d, %v) = %q, json.Encoder = %q", id, ctx, got, want.Bytes())
	}
	if math.IsNaN(perf) || math.IsInf(perf, 0) {
		return // encoding/json refuses it; the server drops the connection
	}
	want.Reset()
	if err := enc.Encode(Response{ID: id, Perf: perf}); err != nil {
		t.Fatal(err)
	}
	if got := appendResponse(nil, id, perf); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("appendResponse(%d, %v [%#x]) = %q, json.Encoder = %q",
			id, perf, math.Float64bits(perf), got, want.Bytes())
	}
}

// frame is one decoded frame or the error that ended the stream.
type frame struct {
	hello Hello
	req   Request
	resp  Response
	err   string
}

// Streams decodeAll reads: a server's, a client's after the hello, and a
// client's with the hello.
const (
	requestStream = iota
	responseStream
	helloStream
)

// decodeAll reads frames of the given stream kind from data until the
// first error: through a frameReader when fast is set, through a
// json.Decoder otherwise. With split set the stream arrives one byte per
// read.
func decodeAll(data []byte, kind int, fast, split bool) []frame {
	var src io.Reader = bytes.NewReader(data)
	if split {
		src = iotest.OneByteReader(src)
	}
	fr := newFrameReader(src)
	dec := json.NewDecoder(src)
	var out []frame
	for i := 0; ; i++ {
		var fm frame
		var err error
		switch {
		case kind == helloStream && i == 0 && fast:
			err = fr.decodeJSON(&fm.hello)
		case kind == helloStream && i == 0:
			err = dec.Decode(&fm.hello)
		case kind == requestStream && fast:
			err = fr.readRequest(&fm.req)
		case kind == requestStream:
			err = dec.Decode(&fm.req)
		case fast:
			err = fr.readResponse(&fm.resp)
		default:
			err = dec.Decode(&fm.resp)
		}
		if err != nil {
			fm = frame{err: err.Error()}
		}
		out = append(out, fm)
		if err != nil {
			return out
		}
	}
}

// helloLine is a server's greeting as it goes on the wire.
var helloLine = func() []byte {
	line, err := json.Marshal(validHello())
	if err != nil {
		panic(err)
	}
	return append(line, '\n')
}()

// checkDecoders fails t unless a frameReader, reading data whole and a
// byte at a time, yields what a json.Decoder yields from it, as a
// request stream, a response stream and one after a hello, and unless a
// line the fast path accepts is what json.Unmarshal makes of it.
func checkDecoders(t *testing.T, data []byte) {
	t.Helper()
	for kind, stream := range [][]byte{data, data, append(helloLine[:len(helloLine):len(helloLine)], data...)} {
		want := decodeAll(stream, kind, false, false)
		for _, split := range []bool{false, true} {
			if got := decodeAll(stream, kind, true, split); !reflect.DeepEqual(got, want) {
				t.Fatalf("stream kind %d, split=%v: frameReader read %q as\n%+v\njson.Decoder as\n%+v",
					kind, split, stream, got, want)
			}
		}
	}

	var fr frameReader
	var req, wantReq Request
	if n := fr.parseRequest(data, &req); n > 0 {
		if err := json.Unmarshal(data[:n], &wantReq); err != nil || !reflect.DeepEqual(req, wantReq) {
			t.Fatalf("fast path read request %q as %+v, json.Unmarshal as %+v (%v)", data[:n], req, wantReq, err)
		}
	}
	var resp, wantResp Response
	if n := parseResponse(data, &resp); n > 0 {
		if err := json.Unmarshal(data[:n], &wantResp); err != nil || resp != wantResp {
			t.Fatalf("fast path read response %q as %+v, json.Unmarshal as %+v (%v)", data[:n], resp, wantResp, err)
		}
	}
}

// wireSeeds are streams each decoder must read alike: canonical lines,
// and the inputs that leave the fast path.
var wireSeeds = []string{
	`{"id":1,"ctx":[0,1,2]}` + "\n",
	`{"id":1,"ctx":[0,1,2]}` + "\n" + `{"id":2,"ctx":[3,4,5]}` + "\n",
	`{"id":1,"ctx":[0,1,2]}`,
	`{"id":1,"ctx":[0,1,2]}{"id":2,"ctx":[0,1,2]}`,
	`{"id":1,"ctx":[0,1,2]}` + "\n" + ` {"id":2,"ctx":[]}` + "\n",
	`{"id":1,"ctx":[]}` + "\n",
	`{"id":1,"ctx":null}` + "\n",
	`{"ctx":[0],"id":1}` + "\n",
	`{"id": 1, "ctx": [0, 1]}` + "\n",
	"{\"id\":1,\n\"ctx\":[0,1,2]}\n",
	`{"id":1,"ctx":[0,1,2]}` + "\r\n" + `{"id":2,"ctx":[1]}` + "\n",
	`{"id":1,"ctx":[0]}` + "\n",
	`{"id":01,"ctx":[0]}` + "\n",
	`{"id":-1,"ctx":[0]}` + "\n",
	`{"id":1.0,"ctx":[0]}` + "\n",
	`{"id":18446744073709551615,"ctx":[]}` + "\n",
	`{"id":18446744073709551616,"ctx":[]}` + "\n",
	`{"id":1,"ctx":[9223372036854775807,9223372036854775808]}` + "\n",
	`{"id":1,"ctx":[1e309]}`,
	`{"id":1,"ctx":[-3]}` + "\n",
	`{"id":1,"ctx":[0],"id":2}` + "\n",
	`null` + "\n",
	`{"id":1,"perf":2500000000}` + "\n",
	`{"id":1,"perf":2500000000}` + "\n" + `{"id":2}` + "\n" + `{"id":3,"perf":-1.5e-7}` + "\n",
	`{"id":3,"perf":1e+21}` + "\n",
	`{"id":3,"perf":1E21}` + "\n",
	`{"id":3,"perf":1e400}` + "\n",
	`{"id":3,"perf":-0}` + "\n",
	`{"id":3,"perf":.5}` + "\n",
	`{"id":3,"perf":1.}` + "\n",
	`{"id":3,"perf":NaN}` + "\n",
	`{"id":3,"error":"remote: assignment has 2 tasks, testbed runs 3"}` + "\n" + `{"id":4,"perf":7}` + "\n",
	`{"id":3,"perf":7,"error":""}` + "\n",
	`garbage not json at all`,
	"\n\n\n",
	"",
	"\xff\xfe\x00{}",
	"\n" + `{"id":1,"perf":2}` + "\n",
	" " + `{"id":1,"perf":2}` + "\n",
}

func TestFrameReaderMatchesDecoder(t *testing.T) {
	for _, s := range wireSeeds {
		checkDecoders(t, []byte(s))
	}
}

// TestFrameReaderFastPathSurvivesSplits: a canonical stream read a byte
// at a time, the way a line split across TCP segments arrives, never
// leaves the fast path.
func TestFrameReaderFastPathSurvivesSplits(t *testing.T) {
	var stream []byte
	for id := uint64(1); id <= 3; id++ {
		stream = appendRequest(stream, id, []int{63, 8, 17, 0, 5})
	}
	fr := newFrameReader(iotest.OneByteReader(bytes.NewReader(stream)))
	for id := uint64(1); id <= 3; id++ {
		var req Request
		if err := fr.readRequest(&req); err != nil || req.ID != id {
			t.Fatalf("frame %d: %+v, %v", id, req, err)
		}
		if fr.dec != nil {
			t.Fatalf("frame %d left the fast path", id)
		}
	}
	var req Request
	if err := fr.readRequest(&req); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}

	// The client's side: the hello through encoding/json, then responses.
	var out bytes.Buffer
	if err := json.NewEncoder(&out).Encode(validHello()); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		out.Write(appendResponse(nil, id, float64(id)*1.25e9))
	}
	fr = newFrameReader(iotest.OneByteReader(&out))
	var hello Hello
	if err := fr.decodeJSON(&hello); err != nil || hello != validHello() {
		t.Fatalf("hello: %+v, %v", hello, err)
	}
	for id := uint64(1); id <= 3; id++ {
		var resp Response
		if err := fr.readResponse(&resp); err != nil || resp != (Response{ID: id, Perf: float64(id) * 1.25e9}) {
			t.Fatalf("frame %d: %+v, %v", id, resp, err)
		}
		if fr.dec != nil {
			t.Fatalf("frame %d left the fast path", id)
		}
	}
}

// FuzzWireCodec is the differential check of the codec against
// encoding/json: data is read as a request stream and as a response
// stream by both decoders, and (id, ctx from data's bytes, perf) is
// written by both encoders.
func FuzzWireCodec(f *testing.F) {
	for i, s := range wireSeeds {
		f.Add([]byte(s), uint64(i), math.Float64bits(float64(i)*1.5e8))
	}
	f.Add([]byte{}, uint64(math.MaxUint64), math.Float64bits(1e-7))
	f.Add([]byte{0, 255}, uint64(0), math.Float64bits(1e21))
	f.Fuzz(func(t *testing.T, data []byte, id uint64, bits uint64) {
		checkDecoders(t, data)
		var ctx []int
		if len(data) > 0 {
			ctx = make([]int, len(data))
			for i, b := range data {
				ctx[i] = int(int8(b)) * 1000003
			}
		}
		checkEncoders(t, id, ctx, math.Float64frombits(bits))
	})
}
