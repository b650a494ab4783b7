package campaign

import (
	"strings"
	"testing"
)

func TestReadValues(t *testing.T) {
	in := "1.5 2.5\n# comment\n3.5 # trailing\n\n4\n"
	vals, err := ReadValues(strings.NewReader(in), "test")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2.5, 3.5, 4}
	if len(vals) != len(want) {
		t.Fatalf("vals = %v", vals)
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("vals[%d] = %v, want %v", i, vals[i], want[i])
		}
	}
	if _, err := ReadValues(strings.NewReader("1.5 oops"), "test"); err == nil {
		t.Error("non-number accepted")
	}
}
