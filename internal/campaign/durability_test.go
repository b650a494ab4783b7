package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"optassign/internal/evt"
)

// TestCreateJournalRefusesOverwrite is the truncate-on-rerun regression:
// re-running a journaled campaign without -resume used to os.Create the
// journal and silently destroy every measurement in it. A create against
// an existing journal must now fail with ErrJournalExists and leave the
// file untouched; only the explicit Force option may overwrite.
func TestCreateJournalRefusesOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	as := drawN(t, 9, 3)
	for i, a := range as {
		if err := j.Append(a, float64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := CreateJournal(path, journalHeader()); !errors.Is(err, ErrJournalExists) {
		t.Fatalf("CreateJournal over an existing journal: err = %v, want ErrJournalExists", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refused create modified the journal")
	}

	// Force is the explicit opt-in: the journal is truncated and restarted.
	j2, err := CreateJournal(path, journalHeader(), Force())
	if err != nil {
		t.Fatalf("CreateJournal(Force): %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Draws != 0 {
		t.Fatalf("forced journal kept %d old draws", st.Draws)
	}
}

// TestJournalExclusiveLock is the double-resume regression: nothing used
// to stop two processes from appending to one journal, interleaving
// entries and corrupting the sequence. The journal now holds an exclusive
// flock from open to Close; a second opener — resume or forced create —
// gets the typed ErrJournalBusy (the coordinator's HTTP 409).
func TestJournalExclusiveLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(drawN(t, 9, 1)[0], 42); err != nil {
		t.Fatal(err)
	}

	// The creator still holds the journal: every second opener is refused.
	if _, _, err := ResumeJournal(path, journalHeader()); !errors.Is(err, ErrJournalBusy) {
		t.Fatalf("ResumeJournal while open: err = %v, want ErrJournalBusy", err)
	}
	if _, err := CreateJournal(path, journalHeader(), Force()); !errors.Is(err, ErrJournalBusy) {
		t.Fatalf("CreateJournal(Force) while open: err = %v, want ErrJournalBusy", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Close released the lock: one resume succeeds, a concurrent second
	// one is refused until the first closes.
	j2, st, err := ResumeJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	if st.Draws != 1 {
		t.Fatalf("resumed state has %d draws, want 1", st.Draws)
	}
	if _, _, err := ResumeJournal(path, journalHeader()); !errors.Is(err, ErrJournalBusy) {
		t.Fatalf("second concurrent resume: err = %v, want ErrJournalBusy", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, _, err := ResumeJournal(path, journalHeader())
	if err != nil {
		t.Fatalf("resume after release: %v", err)
	}
	j3.Close()
}

// TestLoadJournalMemoryCeiling is the O(total-bytes) regression: the
// loader used to slurp the whole file with os.ReadFile, so scanning a
// large journal cost its full size in transient memory. The streaming
// parser's footprint tracks the parsed entries instead. Blank padding
// lines — legal journal content the parser skips — decouple file size
// from entry count, so the bound fails against a slurping loader (≥32
// MiB allocated) and passes with a fixed-size read buffer.
func TestLoadJournalMemoryCeiling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	as := drawN(t, 9, 50)
	for i, a := range as {
		if err := j.Append(a, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte{'\n'}, 1<<20)
	for i := 0; i < 32; i++ {
		if _, err := f.Write(pad); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := LoadJournal(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Draws != 50 || len(st.Results) != 50 || st.Truncated {
		t.Fatalf("padded journal misparsed: draws=%d results=%d truncated=%v", st.Draws, len(st.Results), st.Truncated)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Errorf("LoadJournal of a 32 MiB journal allocated %d bytes, want < 8 MiB (loader is not streaming)", alloc)
	}
}

// TestLoadJournalSpillsLongLines exercises the reassembly path for
// entries longer than the stream parser's read buffer (a quarantine
// error message can be arbitrarily long).
func TestLoadJournalSpillsLongLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.journal")
	j, err := CreateJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	as := drawN(t, 9, 2)
	if err := j.AppendFailure(as[0], errors.New(strings.Repeat("x", 200<<10))); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(as[1], 7); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Draws != 2 || st.Quarantined != 1 || len(st.Results) != 1 || st.Results[0].Perf != 7 {
		t.Fatalf("long-line journal misparsed: %+v", st)
	}

	// The resume path shares the parser: it must recover the same state
	// and keep appending after the oversized line.
	j2, st2, err := ResumeJournal(path, journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	if st2.Draws != 2 {
		t.Fatalf("resumed draws = %d, want 2", st2.Draws)
	}
	if err := j2.Append(drawN(t, 9, 3)[2], 9); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = LoadJournal(path); err != nil || st.Draws != 3 {
		t.Fatalf("after append: draws=%d err=%v", st.Draws, err)
	}
}

// TestLoadJournalNoHeaderTyped pins the typed error for a journal whose
// header never hit the disk (crash between create and the header write):
// the coordinator recreates such journals instead of failing the
// campaign.
func TestLoadJournalNoHeaderTyped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.journal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); !errors.Is(err, ErrJournalNoHeader) {
		t.Fatalf("empty file: err = %v, want ErrJournalNoHeader", err)
	}
	// A torn (unterminated) header line is the same condition.
	if err := os.WriteFile(path, []byte(`{"format":1,"to`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJournal(path); !errors.Is(err, ErrJournalNoHeader) {
		t.Fatalf("torn header: err = %v, want ErrJournalNoHeader", err)
	}
}

// TestSaveEstimatorCheckpointDurable covers the rename-durability fix:
// the save must survive its own directory sync (a missing parent is a
// clean error, not a torn checkpoint) and the installed file must hold
// the state. The save is kept for the benchmark module only.
func TestSaveEstimatorCheckpointDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.journal.estimator")
	st := evt.StreamState{N: 3, Sorted: []float64{1, 2, 9}, Best: 9}
	if err := SaveEstimatorCheckpoint(path, st); err != nil {
		t.Fatal(err)
	}
	if got := readSidecar(t, path); got.N != 3 || got.Best != 9 || len(got.Sorted) != 3 {
		t.Fatalf("checkpoint round-trip = %+v", got)
	}
	if err := SaveEstimatorCheckpoint(filepath.Join(dir, "missing", "x.estimator"), st); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

// readSidecar decodes the state SaveEstimatorCheckpoint wrote at path.
func readSidecar(t *testing.T, path string) evt.StreamState {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st evt.StreamState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st
}
