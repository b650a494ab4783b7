package coord

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpecFile: decoding a spec file never panics, refuses a file whose
// spec names another campaign than its file name, and an accepted file
// re-encoded the way writeSpec encodes it decodes to an equal value.
func FuzzSpecFile(f *testing.F) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(specFile{Format: 1, Spec: smallSpec("a", 3), Paused: true, CreatedUnix: 1700000000}); err != nil {
		f.Fatal(err)
	}
	f.Add("a", buf.Bytes())
	f.Add("b", buf.Bytes())
	f.Add("x", []byte(`{"format":1,"spec":{"id":"x","loss_pct":-0,"seed":-9}}`))
	f.Add("", []byte(`{}`))
	f.Add("a", []byte(`{"spec":{"id":"a"`))
	f.Add("a", []byte("null"))
	f.Fuzz(func(t *testing.T, id string, data []byte) {
		sf, err := decodeSpec(id, data)
		if err != nil {
			return
		}
		if sf.Spec.ID != id {
			t.Fatalf("file %q accepted with spec id %q", id, sf.Spec.ID)
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(sf); err != nil {
			t.Fatalf("re-encoding %+v: %v", sf, err)
		}
		again, err := decodeSpec(id, enc.Bytes())
		if err != nil {
			t.Fatalf("re-encoded spec refused: %v\n%s", err, enc.Bytes())
		}
		if !reflect.DeepEqual(again, sf) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, sf)
		}
	})
}
