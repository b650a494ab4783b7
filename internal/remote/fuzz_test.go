package remote

// FuzzFrame throws arbitrary client bytes at the server's frame handler:
// whatever arrives, the handler must not panic, and everything it writes
// back must stay well-formed protocol frames — a hello first, then only
// valid Response lines. The measurement protocol is the repo's only
// network-facing parser, so it gets the fuzzer.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/t2"
)

func FuzzFrame(f *testing.F) {
	f.Add([]byte(`{"id":1,"ctx":[0,1,2]}` + "\n"))
	f.Add([]byte(`{"id":1,"ctx":[0,1,2]}` + "\n" + `{"id":2,"ctx":[3,4,5]}` + "\n"))
	f.Add([]byte(`{"id":18446744073709551615,"ctx":[]}` + "\n"))
	f.Add([]byte(`{"id":-1,"ctx":[0,1,2,3,4,5,6,7,8,9]}`))
	f.Add([]byte(`{"id":1,"ctx":[0,1,2]}{"id":2,"ctx":[0,1,2]}`))
	f.Add([]byte("{\"id\":1,\n\"ctx\":[0,1,2]}\n"))
	f.Add([]byte(`{"id":1,"ctx":null}` + "\n"))
	f.Add([]byte(`garbage not json at all`))
	f.Add([]byte(`{"id":1,"ctx":[1e309]}`))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, '{', '}'})

	const fixedPerf = 42.0
	topo := t2.UltraSPARCT2()
	runner := runnerFunc(func(a assign.Assignment) (float64, error) {
		return fixedPerf, nil
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Server{Runner: runner, Topo: topo, Tasks: 3, Name: "fuzz",
			ReadTimeout: 200 * time.Millisecond}
		serverConn, clientConn := net.Pipe()

		handlerDone := make(chan struct{})
		go func() {
			defer close(handlerDone)
			s.handle(serverConn)
			serverConn.Close()
		}()

		// Drain everything the handler writes; net.Pipe is unbuffered, so
		// without this reader the handler would block on its first frame.
		var out bytes.Buffer
		readerDone := make(chan struct{})
		go func() {
			defer close(readerDone)
			io.Copy(&out, clientConn)
		}()

		// The handler stops reading as soon as one frame is malformed, so
		// a blocked write just means the rest of the input is undeliverable.
		clientConn.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
		clientConn.Write(data)
		clientConn.Close()
		<-handlerDone
		<-readerDone

		// Everything received must be well-formed frames: a hello, then
		// Response lines pairing our fixed perf with well-formed requests.
		dec := json.NewDecoder(bufio.NewReader(&out))
		var hello Hello
		if err := dec.Decode(&hello); err != nil {
			t.Fatalf("hello frame: %v", err)
		}
		if hello.Topology != topo || hello.Tasks != 3 {
			t.Fatalf("hello = %+v", hello)
		}
		for i := 0; ; i++ {
			var resp Response
			err := dec.Decode(&resp)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("response frame %d: %v", i, err)
			}
			if resp.Error == "" && resp.Perf != fixedPerf {
				t.Fatalf("response frame %d: perf %v with no error", i, resp.Perf)
			}
		}
	})
}
