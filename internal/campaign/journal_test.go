package campaign

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/proc"
	"optassign/internal/t2"
)

func journalHeader() JournalHeader {
	return JournalHeader{Benchmark: "sim", Topo: t2.UltraSPARCT2(), Tasks: 6, Seed: 9}
}

func drawN(t *testing.T, seed int64, n int) []assign.Assignment {
	t.Helper()
	h := journalHeader()
	as, err := assign.Sample(rand.New(rand.NewSource(seed)), h.Topo, h.Tasks, n)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	as := drawN(t, 9, 5)
	for i, a := range as {
		if i == 2 {
			if err := j.AppendFailure(a, errors.New("gave up")); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := j.Append(a, float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != 5 {
		t.Errorf("Len = %d, want 5", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Truncated {
		t.Error("clean journal reported truncated")
	}
	if st.Draws != 5 || st.Quarantined != 1 || len(st.Results) != 4 {
		t.Fatalf("state = draws %d quarantined %d results %d", st.Draws, st.Quarantined, len(st.Results))
	}
	if st.Header != journalHeaderWithFormat() {
		t.Errorf("header = %+v", st.Header)
	}
	for i, r := range st.Results {
		if err := r.Assignment.Validate(); err != nil || r.Perf <= 0 {
			t.Errorf("result %d = %+v (%v)", i, r, err)
		}
	}
}

func journalHeaderWithFormat() JournalHeader {
	h := journalHeader()
	h.Format = JournalVersion
	return h
}

func TestJournalTornTailIsRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	as := drawN(t, 9, 3)
	for i, a := range as {
		if err := j.Append(a, float64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Simulate a crash mid-append: a partial JSON fragment at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"ctx":[1,`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated || st.Draws != 3 || len(st.Results) != 3 {
		t.Fatalf("state = %+v", st)
	}

	// Resume: the torn tail is cut, appends continue the sequence.
	j2, st2, err := ResumeJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Draws != 3 {
		t.Fatalf("resumed draws = %d", st2.Draws)
	}
	more := drawN(t, 10, 1)
	if err := j2.Append(more[0], 99); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	final, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if final.Truncated || final.Draws != 4 || len(final.Results) != 4 {
		t.Fatalf("final state = %+v", final)
	}
	if final.Results[3].Perf != 99 {
		t.Errorf("resumed entry lost: %+v", final.Results[3])
	}
}

func TestResumeJournalRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	cases := []struct {
		name   string
		mutate func(*JournalHeader)
	}{
		{"topology", func(h *JournalHeader) { h.Topo.Cores = 4 }},
		{"tasks", func(h *JournalHeader) { h.Tasks = 12 }},
		{"seed", func(h *JournalHeader) { h.Seed = 1234 }},
		{"benchmark", func(h *JournalHeader) { h.Benchmark = "other" }},
	}
	for _, tc := range cases {
		h := journalHeader()
		tc.mutate(&h)
		if _, _, err := ResumeJournal(path, h); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		}
	}
	if j2, _, err := ResumeJournal(path, journalHeader()); err != nil {
		t.Errorf("matching resume rejected: %v", err)
	} else {
		j2.Close()
	}
}

// TestResumeRefusesModelMismatch: a journal whose header names no model
// was measured by the ½-damped solve. Resuming it under proc.Model fails
// closed with ErrModelMismatch, and so does the reverse; the same model
// resumes.
func TestResumeRefusesModelMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "damped.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(drawN(t, 9, 1)[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"model"`) {
		t.Fatalf("a header without a model wrote one: %s", data)
	}
	current := journalHeader()
	current.Model = proc.Model
	if _, _, err := ResumeJournal(path, current); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("resuming a damped-solve journal under %s: err = %v, want ErrModelMismatch", proc.Model, err)
	}

	path = filepath.Join(t.TempDir(), "current.journal")
	if j, err = CreateJournal(path, current); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeJournal(path, journalHeader()); !errors.Is(err, ErrModelMismatch) {
		t.Fatalf("resuming a %s journal without a model: err = %v, want ErrModelMismatch", proc.Model, err)
	}
	j, st, err := ResumeJournal(path, current)
	if err != nil {
		t.Fatalf("same-model resume refused: %v", err)
	}
	if st.Header.Model != proc.Model {
		t.Errorf("resumed header model %q, want %q", st.Header.Model, proc.Model)
	}
	j.Close()
}

func TestLoadJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	as := drawN(t, 9, 2)
	j.Append(as[0], 1)
	j.Append(as[1], 2)
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []byte("garbage not json\n")
	lines := data
	// Replace the second line (first entry) with garbage.
	first := 0
	for i, b := range lines {
		if b == '\n' {
			first = i + 1
			break
		}
	}
	mut := append(append(append([]byte{}, lines[:first]...), corrupt...), lines[first:]...)
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

// TestReadJournalRejectsGarbage: ReadJournal refuses input that is not
// a journal, an entry whose assignment is invalid on the header's
// topology, and a garbage line after the header.
func TestReadJournalRejectsGarbage(t *testing.T) {
	const header = `{"format":1,"topology":{"Cores":8,"PipesPerCore":2,"ContextsPerPipe":4},"tasks":2}` + "\n"
	for name, input := range map[string]string{
		"not json":      "not json\n",
		"bad format":    `{"format":99,"topology":{"Cores":8,"PipesPerCore":2,"ContextsPerPipe":4},"tasks":2}` + "\n",
		"bad topology":  `{"format":1,"topology":{},"tasks":2}` + "\n",
		"colliding ctx": header + `{"seq":1,"ctx":[0,0],"perf":1}` + "\n",
		"ctx off topo":  header + `{"seq":1,"ctx":[0,64],"perf":1}` + "\n",
		"sequence gap":  header + `{"seq":2,"ctx":[0,1],"perf":1}` + "\n",
		"trailing junk": header + `{"seq":1,"ctx":[0,1],"perf":1}` + "\ngarbage\n",
	} {
		if _, err := ReadJournal(strings.NewReader(input)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ReadJournal(strings.NewReader(header + `{"seq":1,"ctx":[0,1],"perf":1}` + "\n")); err != nil {
		t.Fatalf("well-formed journal refused: %v", err)
	}
}

// TestJournalResumeAfterSimulatedCrash drives the full workflow the CLI
// uses: a journaled campaign dies mid-run (context cancellation after k
// measurements), then a resumed campaign finishes the job measuring zero
// already-journaled assignments.
func TestJournalResumeAfterSimulatedCrash(t *testing.T) {
	h := journalHeader()
	perfOf := func(a assign.Assignment) float64 {
		s := 0.0
		for i, c := range a.Ctx {
			s += float64((c*17+i*3)%71) / 71
		}
		return 100 + 10*s
	}
	path := filepath.Join(t.TempDir(), "campaign.journal")

	// Phase 1: measure, crashing (via ctx) after 25 completions.
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	completed := 0
	crashing := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		if completed >= 25 {
			return 0, fmt.Errorf("crash point reached (should have been cancelled)")
		}
		completed++
		if completed == 25 {
			defer cancel() // "kill" the campaign after this measurement lands
		}
		return perfOf(a), nil
	})
	rng := rand.New(rand.NewSource(h.Seed))
	_, _, err = core.CollectSampleContext(ctx, rng, h.Topo, h.Tasks, 100, JournalRunner{Journal: j, Runner: crashing})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("crash phase err = %v", err)
	}
	j.Close()

	// Phase 2: resume. Count re-measured assignments against the journal.
	j2, st, err := ResumeJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 25 {
		t.Fatalf("recovered %d results, want 25", len(st.Results))
	}
	already := map[string]bool{}
	for _, r := range st.Results {
		already[fmt.Sprint(r.Assignment.Ctx)] = true
	}
	remeasured := 0
	resumedRunner := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		if already[fmt.Sprint(a.Ctx)] {
			remeasured++
		}
		return perfOf(a), nil
	})
	rng2 := rand.New(rand.NewSource(h.Seed))
	if _, err := assign.Sample(rng2, h.Topo, h.Tasks, st.Draws); err != nil {
		t.Fatal(err)
	}
	rest, _, err := core.CollectSampleContext(context.Background(), rng2, h.Topo, h.Tasks, 100-st.Draws,
		JournalRunner{Journal: j2, Runner: resumedRunner})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if remeasured != 0 {
		t.Errorf("resumed campaign re-measured %d journaled assignments", remeasured)
	}
	if len(rest) != 75 {
		t.Fatalf("resumed campaign measured %d, want 75", len(rest))
	}

	// The union equals an uninterrupted run.
	full, _, err := core.CollectSampleContext(context.Background(),
		rand.New(rand.NewSource(h.Seed)), h.Topo, h.Tasks, 100,
		core.ContextRunnerFunc(func(_ context.Context, a assign.Assignment) (float64, error) { return perfOf(a), nil }))
	if err != nil {
		t.Fatal(err)
	}
	final, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Results) != len(full) {
		t.Fatalf("journaled %d, want %d", len(final.Results), len(full))
	}
	for i := range full {
		if final.Results[i].Perf != full[i].Perf {
			t.Fatalf("journaled measurement %d differs from uninterrupted run", i)
		}
	}
}

func TestJournalAppendRejectsNonFinitePerf(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	as := drawN(t, 9, 2)
	for _, perf := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := j.Append(as[0], perf)
		if err == nil {
			t.Fatalf("Append(%v) accepted", perf)
		}
		if !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("Append(%v) error %q does not name the cause", perf, err)
		}
	}
	// The rejected appends must not have consumed sequence numbers or torn
	// the file: the journal stays usable and loads cleanly.
	if err := j.Append(as[1], 42); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Draws != 1 || len(st.Results) != 1 || st.Results[0].Perf != 42 {
		t.Fatalf("state after rejected appends = %+v", st)
	}
}

func TestJournalZeroPerfIsExplicit(t *testing.T) {
	// perf = 0 is a legal measurement; with omitempty it vanished from the
	// JSON, making the entry indistinguishable from a malformed one by eye.
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	a := drawN(t, 9, 1)[0]
	if err := j.Append(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"perf":0`) {
		t.Errorf("journal entry omits perf field:\n%s", data)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 1 || st.Results[0].Perf != 0 || st.Quarantined != 0 {
		t.Fatalf("zero-perf entry did not round-trip: %+v", st)
	}
}

func TestJournalRunnerJournalsQuarantines(t *testing.T) {
	h := journalHeader()
	path := filepath.Join(t.TempDir(), "q.journal")
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	runner := core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		return 0, fmt.Errorf("%w: dead strand", core.ErrQuarantined)
	})
	a := drawN(t, 9, 1)[0]
	if _, err := (JournalRunner{Journal: j, Runner: runner}).MeasureContext(context.Background(), a); !errors.Is(err, core.ErrQuarantined) {
		t.Fatalf("err = %v", err)
	}
	j.Close()
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined != 1 || st.Draws != 1 || len(st.Results) != 0 {
		t.Fatalf("state = %+v", st)
	}
}
