package campaign

// Golden journals: the journal bytes, draw count and exit state of a
// fixed set of campaigns, pinned in testdata/journal_golden.txt. The
// equivalence suites compare two execution paths of the same loop, so a
// change to the loop itself — its draw order, its commit points, where
// it stops — passes them as long as every path changes alike. This test
// compares against the recorded output instead. Regenerate it only for
// a change that is meant to alter journals:
//
//	go test ./internal/campaign -run TestJournalGolden -update

import (
	"bufio"
	"context"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optassign/internal/core"
	"optassign/internal/evt"
	"optassign/internal/search"
	"optassign/internal/t2"
)

var updateJournalGolden = flag.Bool("update", false, "rewrite testdata/journal_golden.txt from the current code")

const journalGoldenPath = "testdata/journal_golden.txt"

func goldenTopo() t2.Topology { return t2.Topology{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 4} }

const goldenTasks = 6

// goldenConfig is the golden campaigns' schedule: a first fit at 200
// draws, a refit every 50, a 900-draw budget.
func goldenConfig(lossPct float64) core.IterConfig {
	return core.IterConfig{
		Topo:          goldenTopo(),
		Tasks:         goldenTasks,
		AcceptLossPct: lossPct,
		Ninit:         200,
		Ndelta:        50,
		MaxSamples:    900,
		Seed:          21,
		POT:           evt.POTOptions{Threshold: evt.ThresholdOptions{MaxExceedFraction: 0.3}},
	}
}

// goldenStrategies lists each strategy with the loss at which its
// campaign certifies after its first round. Anneal is not tail-safe: its
// campaigns run to the budget whatever the loss.
var goldenStrategies = []struct {
	name   string
	params search.Params
	later  float64
}{
	{"uniform", nil, 0.3},
	{"stratified", search.Params{"classes": 4, "retries": 8}, 0.5},
	{"greedy", search.Params{"init": 100, "explore": 0.25}, 0.6},
	{"anneal", search.Params{"init": 100, "decay": 0.99}, 0.6},
}

// goldenPaths are the execution paths each campaign runs on.
var goldenPaths = []struct {
	name string
	rc   RunConfig
}{
	{"serial", RunConfig{}},
	{"workers3", RunConfig{Workers: 3}},
	{"batch16x3", RunConfig{Workers: 3, Batch: core.BatchOptions{Size: 16}}},
}

// goldenExit names how a campaign ended.
func goldenExit(res core.IterResult, err error) string {
	switch {
	case err == nil && res.Satisfied:
		return "certified"
	case errors.Is(err, core.ErrBudgetExhausted):
		return "exhausted"
	default:
		return "error:" + strings.ReplaceAll(err.Error(), " ", "_")
	}
}

// runGolden runs one journaled campaign through Run. With killAt > 0 the
// campaign is killed after killAt committed draws and resumed from its
// journal. It returns the record line of the finished campaign.
func runGolden(t *testing.T, name string, strat int, lossPct float64, rc RunConfig, killAt int) string {
	t.Helper()
	s := goldenStrategies[strat]
	mk := func() core.IterConfig {
		st, err := search.New(s.name, s.params, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := goldenConfig(lossPct)
		cfg.Strategy = st
		return cfg
	}
	hdr := JournalHeader{Benchmark: "golden", Topo: goldenTopo(), Tasks: goldenTasks, Seed: goldenConfig(0).Seed,
		Strategy: search.Spec(s.name, s.params)}
	path := filepath.Join(t.TempDir(), "golden.journal")
	j, err := CreateJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if killAt > 0 {
		rec := &successRecorder{kill: killAt}
		rc.Commit = rec.commit
	}
	rc.Journal = j
	res, runErr := Run(context.Background(), equivStack(true), mk(), rc)
	if killAt > 0 {
		if !errors.Is(runErr, errKilled) {
			t.Fatalf("%s: kill at %d: err = %v", name, killAt, runErr)
		}
		j.Close()
		var st *JournalState
		j, st, err = ResumeJournal(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		rc.Journal, rc.State, rc.Commit = j, st, nil
		res, runErr = Run(context.Background(), equivStack(true), mk(), rc)
	}
	draws := j.Len()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s draws=%d exit=%s sha256=%x", name, draws, goldenExit(res, runErr), sha256.Sum256(data))
}

// journalGoldenRecords runs every golden campaign and returns its record
// lines in a fixed order.
func journalGoldenRecords(t *testing.T) []string {
	var lines []string
	for i, s := range goldenStrategies {
		stops := []struct {
			name string
			loss float64
		}{{"round1", 50}, {"later", s.later}, {"budget", 0.001}}
		for _, stop := range stops {
			for _, p := range goldenPaths {
				name := s.name + "/" + stop.name + "/" + p.name
				lines = append(lines, runGolden(t, name, i, stop.loss, p.rc, 0))
			}
		}
	}
	const kill = 600
	lines = append(lines, runGolden(t, fmt.Sprintf("greedy/budget/workers3/kill%d", kill), 2, 0.001, RunConfig{Workers: 3}, kill))
	return lines
}

// TestJournalGolden runs the golden campaigns and compares each record
// with testdata/journal_golden.txt.
func TestJournalGolden(t *testing.T) {
	got := journalGoldenRecords(t)
	if *updateJournalGolden {
		out := "# strategy/stop/path draws=<journaled draws> exit=<how it ended> sha256=<journal bytes>\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(journalGoldenPath, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(journalGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden campaigns, %s holds %d", len(got), journalGoldenPath, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("campaign %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}
