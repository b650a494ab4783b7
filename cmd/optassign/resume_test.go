package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"optassign/internal/campaign"
	"optassign/internal/t2"
)

// TestMain lets a test run the command itself: with OPTASSIGN_TEST_MAIN
// set, the test binary is optassign, its arguments the command's flags.
func TestMain(m *testing.M) {
	if os.Getenv("OPTASSIGN_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestResumeRefusesJournalOfAnotherModel: a journal whose header names no
// model was measured by the ½-damped solve. optassign -resume refuses it
// before measuring anything, exits non-zero and says why.
func TestResumeRefusesJournalOfAnotherModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "damped.journal")
	j, err := campaign.CreateJournal(path, campaign.JournalHeader{
		Benchmark: "IPFwd-L1", Topo: t2.UltraSPARCT2(), Tasks: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-benchmark", "IPFwd-L1", "-instances", "2", "-seed", "1",
		"-journal", path, "-resume")
	cmd.Env = append(os.Environ(), "OPTASSIGN_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("resume under another model: err = %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), campaign.ErrModelMismatch.Error()) {
		t.Errorf("output does not name the model mismatch:\n%s", out)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("the refused resume changed the journal:\n%s\nwas\n%s", after, before)
	}
}
