package campaign

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/core"
)

// FuzzLoadJournal fuzzes ReadJournal, the parser every resume trusts.
// Arbitrary input must never panic it. Whatever it accepts must number
// its entries 1, 2, 3, ... with Draws == len(Log), and its Results must
// be exactly the Log's successful entries, in order. Each accepted state
// is then written out again through CreateJournal, Append and
// AppendFailure and reloaded, and the reloaded Log must equal the
// original.
func FuzzLoadJournal(f *testing.F) {
	h := journalHeader()
	path := filepath.Join(f.TempDir(), "seed.journal")
	j, err := CreateJournal(path, h)
	if err != nil {
		f.Fatal(err)
	}
	as, err := assign.Sample(rand.New(rand.NewSource(9)), h.Topo, h.Tasks, 3)
	if err != nil {
		f.Fatal(err)
	}
	j.Append(as[0], 1e6)
	j.AppendFailure(as[1], errors.New("gave up"))
	j.Append(as[2], 0)
	j.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add("")
	f.Add("{}")
	f.Add(string(valid) + `{"seq":4,"ctx":[1,`)
	f.Add(`{"format":1,"topology":{"Cores":8,"PipesPerCore":2,"ContextsPerPipe":4},"tasks":1}` + "\n\n" + `{"seq":1,"ctx":[0],"perf":-1}` + "\n")

	f.Fuzz(func(t *testing.T, input string) {
		st, err := ReadJournal(strings.NewReader(input))
		if err != nil {
			return
		}
		if st.Draws != len(st.Log) {
			t.Fatalf("Draws = %d, len(Log) = %d", st.Draws, len(st.Log))
		}
		// Every complete entry line carries the next sequence number.
		lines := strings.Split(input, "\n")
		seq := 0
		for _, line := range lines[1 : len(lines)-1] {
			if strings.TrimSpace(line) == "" {
				continue
			}
			var e JournalEntry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("accepted entry line %q does not decode: %v", line, err)
			}
			if seq++; e.Seq != seq {
				t.Fatalf("accepted entry %d has seq %d", seq, e.Seq)
			}
		}
		if seq != st.Draws {
			t.Fatalf("%d entry lines, Draws = %d", seq, st.Draws)
		}
		quarantined := 0
		var successes []core.SampleResult
		for _, d := range st.Log {
			if d.Quarantined {
				quarantined++
				continue
			}
			successes = append(successes, core.SampleResult{Assignment: d.Assignment, Perf: d.Perf})
		}
		if quarantined != st.Quarantined || !reflect.DeepEqual(st.Results, successes) {
			t.Fatalf("Results (%d) are not the Log's %d successes; %d quarantined, state says %d",
				len(st.Results), len(successes), quarantined, st.Quarantined)
		}

		again := filepath.Join(t.TempDir(), "again.journal")
		j, err := CreateJournal(again, st.Header)
		if err != nil {
			t.Fatalf("accepted header does not create a journal: %v", err)
		}
		for _, d := range st.Log {
			if d.Quarantined {
				err = j.AppendFailure(d.Assignment, errors.New("quarantined"))
			} else {
				err = j.Append(d.Assignment, d.Perf)
			}
			if err != nil {
				t.Fatalf("accepted entry does not re-journal: %v", err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadJournal(again)
		if err != nil {
			t.Fatalf("re-journaled state does not reload: %v", err)
		}
		if reloaded.Header != st.Header || !reflect.DeepEqual(reloaded.Log, st.Log) {
			t.Fatalf("round trip changed the journal: %d draws -> %d", len(st.Log), len(reloaded.Log))
		}
	})
}

// FuzzReadValues ensures the bare-numbers parser never panics and that
// accepted inputs yield only finite values.
func FuzzReadValues(f *testing.F) {
	f.Add("1.5 2.5\n# c\n3\n")
	f.Add("")
	f.Add("nan")
	f.Fuzz(func(t *testing.T, input string) {
		vals, err := ReadValues(strings.NewReader(input), "fuzz")
		if err != nil {
			return
		}
		_ = vals
	})
}
