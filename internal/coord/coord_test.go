package coord

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/campaign"
	"optassign/internal/core"
)

// smallSpec is a campaign that finishes in well under a second on the
// simulated testbed: 2 pipeline instances (6 tasks) and a tight budget.
// tableLen reports the number of promoted rows.
func tableLen(c *Coordinator) int { return c.table.Len() }

func smallSpec(id string, seed int64) Spec {
	return Spec{
		ID:         id,
		Benchmark:  "IPFwd-L1",
		Instances:  2,
		LossPct:    5,
		Ninit:      400,
		Ndelta:     100,
		MaxSamples: 600,
		Seed:       seed,
	}
}

func waitSettled(t *testing.T, c *Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := c.Wait(ctx); err != nil {
		t.Fatalf("campaigns did not settle: %v", err)
	}
}

// TestConcurrentCampaigns runs more campaigns than slots and checks every
// one completes, promotes a row, and stays byte-addressable by query.
func TestConcurrentCampaigns(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{DataDir: dir, MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := c.Submit(smallSpec(fmt.Sprintf("camp-%d", i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	waitSettled(t, c)
	for i := 0; i < n; i++ {
		st, err := c.Status(fmt.Sprintf("camp-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCompleted {
			t.Fatalf("campaign %s: state %s (err %q), want completed", st.ID, st.State, st.Err)
		}
		if st.Samples == 0 || st.Best == 0 {
			t.Fatalf("campaign %s completed with no result: %+v", st.ID, st)
		}
	}
	if tableLen(c) != n {
		t.Fatalf("table has %d rows, want %d", tableLen(c), n)
	}
	rows, err := c.Query("benchmark=IPFwd-L1,status=completed")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("query matched %d rows, want %d", len(rows), n)
	}
	if list := c.List(StateCompleted, ""); len(list) != n {
		t.Fatalf("List(completed) = %d campaigns, want %d", len(list), n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidationAndDuplicates(t *testing.T) {
	c, err := Open(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, spec := range []Spec{
		{},
		{ID: "x/../y", Benchmark: "IPFwd-L1", LossPct: 5},
		{ID: "ok", Benchmark: "IPFwd-L1"},
		{ID: "ok", Benchmark: "IPFwd-L1", LossPct: 5, Strategy: "nope"},
	} {
		if _, err := c.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%+v): err = %v, want ErrBadSpec", spec, err)
		}
	}
	if _, err := c.Submit(Spec{ID: "ok", Benchmark: "no-such-app", LossPct: 5}); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown benchmark: err = %v, want ErrBadSpec", err)
	}
	if _, err := c.Submit(smallSpec("dup", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(smallSpec("dup", 2)); !errors.Is(err, ErrCampaignExists) {
		t.Errorf("duplicate submit: err = %v, want ErrCampaignExists", err)
	}
	waitSettled(t, c)
	// A completed id is still taken.
	if _, err := c.Submit(smallSpec("dup", 3)); !errors.Is(err, ErrCampaignExists) {
		t.Errorf("resubmit of completed id: err = %v, want ErrCampaignExists", err)
	}
}

// TestSpecStrategy checks the one parse of a spec's strategy: the
// canonical journal string (empty for the default uniform sampler, keys
// sorted) beside the strategy it builds, and a refusal that Validate
// reports as ErrBadSpec.
func TestSpecStrategy(t *testing.T) {
	for _, tc := range []struct {
		name, strategy, params string
		want, wantName         string
		bad                    bool
	}{
		{name: "default", want: "", wantName: "uniform"},
		{name: "uniform", strategy: "uniform", want: "", wantName: "uniform"},
		{name: "sorted-params", strategy: "greedy", params: "init=200, explore=0.1", want: "greedy(explore=0.1,init=200)", wantName: "greedy"},
		{name: "bad-params", strategy: "greedy", params: "explore", bad: true},
		{name: "uniform-params", params: "k=1", bad: true},
		{name: "unknown", strategy: "nope", bad: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := smallSpec("s", 1)
			spec.Strategy, spec.StrategyParams = tc.strategy, tc.params
			canon, strat, err := spec.strategy()
			if verr := spec.Validate(); tc.bad != errors.Is(verr, ErrBadSpec) {
				t.Errorf("Validate() = %v, bad spec %v", verr, tc.bad)
			}
			if tc.bad {
				if err == nil {
					t.Fatalf("strategy() accepted %q(%s)", tc.strategy, tc.params)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if canon != tc.want {
				t.Errorf("canonical spec %q, want %q", canon, tc.want)
			}
			if strat.Name() != tc.wantName {
				t.Errorf("built strategy %q, want %q", strat.Name(), tc.wantName)
			}
		})
	}
}

// TestPauseResumeCancel drives the full lifecycle: pause survives a
// restart, resume continues from the journal, cancel is terminal.
func TestPauseResumeCancel(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	spec := smallSpec("lifecycle", 7)
	spec.MaxSamples = 500000
	spec.LossPct = 1e-6 // unreachable: the campaign runs until stopped
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Let it journal some measurements, then pause.
	jp := c.JournalPath("lifecycle")
	waitForJournalGrowth(t, jp, 200)
	if _, err := c.Pause("lifecycle"); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)
	st, _ := c.Status("lifecycle")
	if st.State != StatePaused {
		t.Fatalf("after pause: state %s, want paused", st.State)
	}
	if _, err := c.Pause("lifecycle"); !errors.Is(err, ErrWrongState) {
		t.Errorf("pause of paused: err = %v, want ErrWrongState", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the pause is durable — the campaign must NOT auto-resume.
	c, err = Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ = c.Status("lifecycle"); st.State != StatePaused {
		t.Fatalf("after restart: state %s, want paused", st.State)
	}
	before, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}

	// Resume continues from the journal, then cancel terminates it.
	if _, err := c.Resume("lifecycle"); err != nil {
		t.Fatal(err)
	}
	waitForJournalGrowth(t, jp, int64(len(before))+200)
	if _, err := c.Cancel("lifecycle"); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)
	if st, _ = c.Status("lifecycle"); st.State != StateCancelled {
		t.Fatalf("after cancel: state %s, want cancelled", st.State)
	}
	rows, err := c.Query("id=lifecycle,status=cancelled")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("cancelled row not promoted: %d rows", len(rows))
	}
	if _, err := c.Resume("lifecycle"); !errors.Is(err, ErrWrongState) {
		t.Errorf("resume of cancelled: err = %v, want ErrWrongState", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Cancelled is terminal across restarts too.
	c, err = Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st, _ = c.Status("lifecycle"); st.State != StateCancelled {
		t.Fatalf("after restart: state %s, want cancelled", st.State)
	}
}

// waitForJournalGrowth polls until the journal file exceeds size bytes.
func waitForJournalGrowth(t *testing.T, path string, size int64) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if fi, err := os.Stat(path); err == nil && fi.Size() > size {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("journal %s never grew past %d bytes", path, size)
}

// TestJournalBusySurfaced: a journal locked by another process maps to
// the typed busy error at resume time — the coordinator's HTTP 409.
func TestJournalBusySurfaced(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := smallSpec("busy", 3)
	spec.MaxSamples = 500000
	spec.LossPct = 1e-6
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	jp := c.JournalPath("busy")
	waitForJournalGrowth(t, jp, 200)

	// The running campaign holds the exclusive lock: an outside opener
	// is refused...
	hdr := campaign.JournalHeader{}
	if _, _, err := campaign.ResumeJournal(jp, hdr); !errors.Is(err, campaign.ErrJournalBusy) {
		t.Fatalf("outside resume while running: err = %v, want ErrJournalBusy", err)
	}
	if _, err := c.Pause("busy"); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)

	// ...and when an outside process holds the paused journal, the
	// coordinator's own resume is refused with the same typed error.
	st, err := campaign.LoadJournal(jp)
	if err != nil {
		t.Fatal(err)
	}
	outside, _, err := campaign.ResumeJournal(jp, st.Header)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resume("busy"); !errors.Is(err, campaign.ErrJournalBusy) {
		t.Fatalf("resume of externally held journal: err = %v, want ErrJournalBusy", err)
	}
	if err := outside.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resume("busy"); err != nil {
		t.Fatalf("resume after external release: %v", err)
	}
	if _, err := c.Cancel("busy"); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)
}

// TestRestartResumesByteIdentical is the crash/restart e2e: a campaign
// stopped mid-run and resumed by a fresh coordinator must write exactly
// the journal an uninterrupted run writes — every byte.
func TestRestartResumesByteIdentical(t *testing.T) {
	spec := smallSpec("bi", 11)
	spec.MaxSamples = 20000
	spec.LossPct = 0.2 // runs the full budget, long enough to interrupt

	// Baseline: one uninterrupted run.
	base := t.TempDir()
	c, err := Open(Config{DataDir: base})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)
	stBase, _ := c.Status("bi")
	if stBase.State != StateCompleted {
		t.Fatalf("baseline: state %s (err %q)", stBase.State, stBase.Err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(base, "journals", "bi.journal"))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: stop the coordinator mid-campaign, restart, let
	// recovery resume it to completion.
	dir := t.TempDir()
	c, err = Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	jp := c.JournalPath("bi")
	waitForJournalGrowth(t, jp, 500)
	if err := c.Close(); err != nil { // stop at a measurement boundary
		t.Fatal(err)
	}
	mid, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) >= len(want) {
		t.Skipf("campaign finished before the stop (%d >= %d bytes); nothing interrupted", len(mid), len(want))
	}

	c, err = Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := c.Status("bi")
	if st.State.Terminal() {
		t.Fatalf("restart recovered %q as %s before running it", st.ID, st.State)
	}
	waitSettled(t, c)
	st, _ = c.Status("bi")
	if st.State != StateCompleted {
		t.Fatalf("resumed campaign: state %s (err %q)", st.State, st.Err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed journal differs from uninterrupted run: %d vs %d bytes", len(got), len(want))
	}
	if st.Samples != stBase.Samples || st.Satisfied != stBase.Satisfied || st.Best != stBase.Best {
		t.Fatalf("resumed result differs: %+v vs %+v", st, stBase)
	}
}

// TestQueryOverManyPromotedCampaigns promotes 100+ campaigns and then
// answers predicate queries with every journal file deleted — proof the
// query path never opens one.
func TestQueryOverManyPromotedCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 100 small campaigns")
	}
	dir := t.TempDir()
	c, err := Open(Config{DataDir: dir, MaxConcurrent: 8})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		spec := smallSpec(fmt.Sprintf("q%03d", i), int64(i+1))
		spec.MaxSamples = 400 // one fit round, then budget exhaustion
		if _, err := c.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	waitSettled(t, c)
	if got := tableLen(c); got != n {
		t.Fatalf("promoted %d rows, want %d", got, n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Delete the raw evidence: if any query path touched a journal, it
	// would fail loudly now.
	if err := os.RemoveAll(filepath.Join(dir, "journals")); err != nil {
		t.Fatal(err)
	}
	c, err = Open(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	all, err := c.Query("benchmark=IPFwd-L1")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("query over journal-less store: %d rows, want %d", len(all), n)
	}
	some, err := c.Query("status=completed,samples>=40,upb>0")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) == 0 || len(some) > n {
		t.Fatalf("predicate query returned %d rows", len(some))
	}
	one, err := c.Query("id=q042")
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0]["id"] != "q042" {
		t.Fatalf("id query = %v", one)
	}
}

// teardownSource reproduces what a remote fleet does under cancellation:
// the in-flight measurement fails with a transport error — NOT
// context.Canceled — because the stream collapsed when the run was torn
// down. After 5 clean draws the runner blocks until the context dies,
// then surfaces the transport-flavored error.
type teardownSource struct {
	blocked chan struct{} // closed once the runner is parked mid-draw
}

func (s teardownSource) Testbed() string { return "local" }

func (s teardownSource) Acquire(spec Spec) (Handle, error) {
	h, err := LocalSource{}.Acquire(spec)
	if err != nil {
		return nil, err
	}
	return &teardownHandle{Handle: h, blocked: s.blocked}, nil
}

type teardownHandle struct {
	Handle
	blocked chan struct{}
	n       int
}

var errStreamBroken = errors.New("remote: stream broken (test)")

func (h *teardownHandle) Runner() core.ContextRunner {
	inner := h.Handle.Runner()
	return core.ContextRunnerFunc(func(ctx context.Context, a assign.Assignment) (float64, error) {
		h.n++
		if h.n > 5 {
			if h.n == 6 {
				close(h.blocked)
			}
			<-ctx.Done()
			return 0, errStreamBroken
		}
		return inner.MeasureContext(ctx, a)
	})
}

// TestCancelDuringStreamTeardown pins the teardown classification: a
// cancel whose context cancellation surfaces as a transport error from
// the collapsing measurement stream must still land the campaign in
// cancelled (promoted row included), not failed.
func TestCancelDuringStreamTeardown(t *testing.T) {
	src := teardownSource{blocked: make(chan struct{})}
	c, err := Open(Config{DataDir: t.TempDir(), Source: src})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := smallSpec("teardown", 3)
	spec.MaxSamples = 500000
	spec.LossPct = 1e-6
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	select {
	case <-src.blocked:
	case <-time.After(time.Minute):
		t.Fatal("runner never reached the blocking draw")
	}
	if _, err := c.Cancel("teardown"); err != nil {
		t.Fatal(err)
	}
	waitSettled(t, c)

	st, err := c.Status("teardown")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("state after cancel during stream teardown = %s (error %q), want cancelled", st.State, st.Err)
	}
	rows, err := c.Query("id=teardown,status=cancelled")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("promoted rows for cancelled campaign: %d, want 1", len(rows))
	}
}
