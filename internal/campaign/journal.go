package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sync"
	"time"

	"optassign/internal/assign"
	"optassign/internal/cas"
	"optassign/internal/core"
	"optassign/internal/obs"
	"optassign/internal/t2"
)

// JournalVersion identifies the write-ahead journal's on-disk layout. It
// is versioned alongside FormatVersion but evolves independently: the
// journal is an execution log (it keeps quarantined failures and a draw
// count), the campaign file is the cleaned result.
const JournalVersion = 1

// JournalHeader is the journal's first JSON line: enough identity to
// refuse resuming against the wrong testbed or the wrong seed.
type JournalHeader struct {
	Format    int         `json:"format"`
	Benchmark string      `json:"benchmark,omitempty"`
	Topo      t2.Topology `json:"topology"`
	Tasks     int         `json:"tasks"`
	Seed      int64       `json:"seed,omitempty"`
	// Strategy is the search strategy's canonical spec (search.Spec):
	// name plus sorted parameters, e.g. "greedy(explore=0.1,init=200)".
	// The draw sequence is a deterministic function of (seed, strategy,
	// outcomes), so resuming under a different strategy would diverge
	// from the journaled draws — ResumeJournal refuses the mismatch. The
	// uniform baseline's spec is the empty string, which omitempty elides:
	// journals written before strategies existed parse as uniform and
	// uniform journals stay byte-identical to the historical format.
	Strategy string `json:"strategy,omitempty"`
}

// JournalEntry is one completed measurement attempt: a performance for a
// successful one, an error string for a quarantined one. Seq numbers the
// entries from 1 so a resumed run can fast-forward its RNG by exactly the
// draws the interrupted run consumed.
//
// Perf deliberately has no omitempty: a legitimate perf == 0 success
// must be journaled explicitly rather than silently eliding the field
// and making the entry read like a failure record missing its error.
// (Entries distinguish success from quarantine by Error alone, so old
// journals without the field still load.)
type JournalEntry struct {
	Seq   int     `json:"seq"`
	Ctx   []int   `json:"ctx"`
	Perf  float64 `json:"perf"`
	Error string  `json:"error,omitempty"`
}

// Journal is a write-ahead measurement log: every measurement is appended
// (and pushed to the OS) as it completes, so a killed campaign loses at
// most the measurement in flight. At ~1.5 s of testbed time per
// measurement (§5.4) that turns a crash from "lose 2 hours" into "lose
// 1.5 seconds". It is safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	header  JournalHeader
	seq     int
	closed  bool
	metrics *JournalMetrics
}

// JournalMetrics observes the write-ahead journal: entries by kind,
// bytes persisted, and sync latency (the fsync cost an operator trades
// for power-loss safety). Constructed via NewJournalMetrics; a nil
// bundle disables recording per the internal/obs conventions.
type JournalMetrics struct {
	Successes   *obs.Counter
	Failures    *obs.Counter
	Bytes       *obs.Counter
	Syncs       *obs.Counter
	SyncSeconds *obs.Histogram
}

// NewJournalMetrics registers the journal series on r; a nil registry
// yields a nil bundle.
func NewJournalMetrics(r *obs.Registry) *JournalMetrics {
	if r == nil {
		return nil
	}
	return &JournalMetrics{
		Successes:   r.Counter("optassign_journal_entries_total", "Journaled measurements, by outcome.", obs.L("kind", "success")),
		Failures:    r.Counter("optassign_journal_entries_total", "Journaled measurements, by outcome.", obs.L("kind", "failure")),
		Bytes:       r.Counter("optassign_journal_bytes_total", "Bytes appended to the journal, header included."),
		Syncs:       r.Counter("optassign_journal_syncs_total", "Explicit syncs to stable storage."),
		SyncSeconds: r.Histogram("optassign_journal_sync_seconds", "Latency of journal syncs.", obs.DurationBuckets()),
	}
}

// Instrument attaches a metrics bundle to the journal. Instrumentation
// observes writes only — it never alters what bytes land in the file,
// keeping journals byte-identical with observability on or off.
func (j *Journal) Instrument(m *JournalMetrics) {
	j.mu.Lock()
	j.metrics = m
	j.mu.Unlock()
}

// ErrJournalExists reports a CreateJournal against a path that already
// holds a journal. Before this error existed, re-running a campaign
// command without -resume silently truncated the old journal — hours of
// measurements gone for a forgotten flag. Overwriting now requires the
// explicit Force option.
var ErrJournalExists = errors.New("campaign: journal already exists (resume it, or force overwrite)")

// ErrJournalBusy reports that another process (or another open handle in
// this one) holds the journal's exclusive lock. Two writers appending to
// one journal would interleave entries and corrupt the sequence, so the
// second opener is refused instead. The coordinator surfaces this as
// HTTP 409.
var ErrJournalBusy = errors.New("campaign: journal is in use by another process")

// CreateOption adjusts CreateJournal's behavior.
type CreateOption func(*createOptions)

type createOptions struct{ force bool }

// Force lets CreateJournal overwrite an existing journal. Without it a
// create against an existing path fails with ErrJournalExists. The
// truncation happens only after the exclusive lock is acquired, so even
// a forced create cannot destroy a journal another process is appending
// to — that fails with ErrJournalBusy instead.
func Force() CreateOption { return func(o *createOptions) { o.force = true } }

// CreateJournal starts a fresh journal at path and writes its header. An
// existing journal is never silently truncated: the create fails with
// ErrJournalExists unless the Force option is passed. The journal holds
// an exclusive flock until Close, so no concurrent process can append to
// (or force-recreate) the same file.
func CreateJournal(path string, h JournalHeader, opts ...CreateOption) (*Journal, error) {
	var o createOptions
	for _, opt := range opts {
		opt(&o)
	}
	h.Format = JournalVersion
	if err := h.Topo.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: journal header: %w", err)
	}
	flags := os.O_RDWR | os.O_CREATE | os.O_EXCL
	if o.force {
		// No O_TRUNC: the truncation must wait for the lock, or a forced
		// create could destroy a journal mid-append by a live process.
		flags = os.O_RDWR | os.O_CREATE
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("%w: %s", ErrJournalExists, path)
	}
	if err != nil {
		return nil, err
	}
	if err := cas.TryLockEx(f); err != nil {
		f.Close()
		if errors.Is(err, cas.ErrLocked) {
			return nil, fmt.Errorf("%w: %s", ErrJournalBusy, path)
		}
		return nil, fmt.Errorf("campaign: locking journal %s: %w", path, err)
	}
	if o.force {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: truncating journal %s: %w", path, err)
		}
	}
	j := &Journal{f: f, path: path, header: h}
	if err := j.writeLine(h); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// ResumeJournal reopens an existing journal for appending: it takes the
// journal's exclusive lock (refusing with ErrJournalBusy if another
// process holds it), loads and verifies the journaled state against h
// (topology, task count, seed, and benchmark when both name one), then
// continues the sequence where the interrupted run stopped. The returned
// state is what the caller feeds to core.IterConfig.Resume / ResumeDraws.
func ResumeJournal(path string, h JournalHeader) (*Journal, *JournalState, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := cas.TryLockEx(f); err != nil {
		f.Close()
		if errors.Is(err, cas.ErrLocked) {
			return nil, nil, fmt.Errorf("%w: %s", ErrJournalBusy, path)
		}
		return nil, nil, fmt.Errorf("campaign: locking journal %s: %w", path, err)
	}
	// Load through the locked descriptor: no other process can append or
	// truncate between the load and our first append.
	st, err := loadJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if st.Header.Topo != h.Topo {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: journal topology %v does not match testbed %v", st.Header.Topo, h.Topo)
	}
	if st.Header.Tasks != h.Tasks {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: journal has %d tasks, testbed runs %d", st.Header.Tasks, h.Tasks)
	}
	if st.Header.Seed != h.Seed {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: journal seed %d does not match campaign seed %d (resume would draw different assignments)", st.Header.Seed, h.Seed)
	}
	if st.Header.Benchmark != "" && h.Benchmark != "" && st.Header.Benchmark != h.Benchmark {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: journal benchmark %q does not match %q", st.Header.Benchmark, h.Benchmark)
	}
	if st.Header.Strategy != h.Strategy {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: journal strategy %q does not match campaign strategy %q (resume would draw different assignments)",
			st.Header.Strategy, h.Strategy)
	}
	if st.Truncated {
		// The crash left a partial final line; cut it off so the next
		// append starts on a fresh, well-formed line. O_APPEND writes
		// land at the new end of file.
		if err := f.Truncate(st.validBytes); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	return &Journal{f: f, path: path, header: st.Header, seq: st.Draws}, st, nil
}

// Header returns the journal's identity line.
func (j *Journal) Header() JournalHeader { return j.header }

// Len returns how many entries have been journaled, including entries
// recovered by ResumeJournal.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Append journals one successful measurement. A non-finite perf is
// rejected up front with a clear error: encoding/json cannot represent
// NaN or ±Inf, and letting it fail mid-campaign surfaces as an opaque
// "unsupported value" encode error long after the bad measurement —
// whereas a testbed reporting a non-finite performance is the actual
// fault worth reporting.
func (j *Journal) Append(a assign.Assignment, perf float64) error {
	if math.IsNaN(perf) || math.IsInf(perf, 0) {
		return fmt.Errorf("campaign: journal: non-finite performance %v for %s (testbed fault?)", perf, a)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLine(JournalEntry{Seq: j.seq + 1, Ctx: a.Ctx, Perf: perf})
}

// AppendFailure journals one quarantined measurement: the draw is
// consumed, the result is not usable.
func (j *Journal) AppendFailure(a assign.Assignment, measureErr error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	msg := "measurement failed"
	if measureErr != nil {
		msg = measureErr.Error()
	}
	return j.writeLine(JournalEntry{Seq: j.seq + 1, Ctx: a.Ctx, Error: msg})
}

// writeLine marshals v and appends it as one line. Callers hold j.mu
// (except construction). The write goes straight to the file descriptor —
// no userspace buffering — so a crashed process loses nothing that
// Append returned success for.
func (j *Journal) writeLine(v any) error {
	if j.closed {
		return errors.New("campaign: journal is closed")
	}
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("campaign: journal encode: %w", err)
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("campaign: journal write: %w", err)
	}
	if m := j.metrics; m != nil {
		m.Bytes.Add(float64(len(line) + 1))
		if e, ok := v.(JournalEntry); ok {
			if e.Error != "" {
				m.Failures.Inc()
			} else {
				m.Successes.Inc()
			}
		}
	}
	if e, ok := v.(JournalEntry); ok {
		j.seq = e.Seq
	}
	return nil
}

// Commit is the journal as a core.CommitFunc: successes are journaled via
// Append, quarantines via AppendFailure, anything else (a campaign
// cancellation, a fatal measurement error) is not journaled — the draw
// never completed and a resumed run re-executes it. Every execution path
// commits in draw order, so the journal it produces is byte-identical
// whether the campaign ran serially, fanned out or batched.
func (j *Journal) Commit(a assign.Assignment, perf float64, measureErr error) error {
	switch {
	case measureErr == nil:
		return j.Append(a, perf)
	case errors.Is(measureErr, core.ErrQuarantined):
		return j.AppendFailure(a, measureErr)
	}
	return nil
}

// Sync forces the journal down to stable storage (power-loss safety; a
// mere process crash never needs it).
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	start := time.Time{}
	if j.metrics != nil {
		start = time.Now()
	}
	err := j.f.Sync()
	if m := j.metrics; m != nil {
		m.SyncSeconds.Observe(time.Since(start).Seconds())
		m.Syncs.Inc()
	}
	return err
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// JournalState is everything recovered from a journal file.
type JournalState struct {
	Header JournalHeader
	// Results are the successful measurements, in execution order —
	// ready for core.IterConfig.Resume.
	Results []core.SampleResult
	// Quarantined counts the journaled failures.
	Quarantined int
	// Log is every journaled draw in draw order, successes and
	// quarantines alike — core.IterConfig.ResumeLog. Outcome-driven
	// search strategies replay it to rebuild their state on resume.
	Log []core.ResumeDraw
	// Draws is the total number of assignment draws the journaled run
	// consumed (successes + quarantines) — core.IterConfig.ResumeDraws.
	Draws int
	// Truncated reports that the file ended in a partial line (the
	// process died mid-append); the fragment was ignored.
	Truncated bool
	// validBytes is the length of the well-formed prefix; ResumeJournal
	// truncates a torn file back to it before appending.
	validBytes int64
}

// ErrJournalNoHeader reports a journal file with no complete header line
// — typically a crash in the instants between creating the file and the
// header write reaching it. Nothing is lost (no measurement can precede
// the header); callers like the coordinator recreate such journals.
var ErrJournalNoHeader = errors.New("campaign: journal has no header")

// LoadJournal reads a journal written by Journal, tolerating a torn final
// line — the expected crash signature for a process killed mid-append.
// Corruption anywhere else is an error.
func LoadJournal(path string) (*JournalState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return loadJournal(f)
}

// loadJournal stream-parses a journal from r through a fixed-size read
// buffer: resident memory is proportional to the parsed entries, never to
// the file size, so a coordinator can scan thousands of journals at
// startup without O(total-bytes) memory. (The historical loader slurped
// the whole file with os.ReadFile and held it alongside the parsed
// state.) Torn-tail handling is unchanged: a final line without its
// newline is the crash signature, reported via Truncated and excluded
// from validBytes.
func loadJournal(r io.Reader) (*JournalState, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	st := &JournalState{}
	var spill []byte // reassembles lines longer than the read buffer
	line := 0        // complete lines consumed; the header is line 1
	for {
		chunk, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			spill = append(spill, chunk...)
			continue
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("campaign: reading journal: %w", err)
		}
		raw := chunk
		if len(spill) > 0 {
			spill = append(spill, chunk...)
			raw = spill
		}
		if err != nil {
			// EOF: anything unterminated is a torn tail — the process
			// died mid-append — and the fragment is ignored.
			st.Truncated = len(raw) > 0
			break
		}
		line++
		st.validBytes += int64(len(raw))
		content := raw[:len(raw)-1]
		switch {
		case line == 1:
			if err := json.Unmarshal(content, &st.Header); err != nil {
				return nil, fmt.Errorf("campaign: journal header: %w", err)
			}
			if st.Header.Format != JournalVersion {
				return nil, fmt.Errorf("campaign: unsupported journal format %d", st.Header.Format)
			}
			if err := st.Header.Topo.Validate(); err != nil {
				return nil, fmt.Errorf("campaign: journal header: %w", err)
			}
		case len(bytes.TrimSpace(content)) == 0:
		default:
			var e JournalEntry
			if err := json.Unmarshal(content, &e); err != nil {
				return nil, fmt.Errorf("campaign: journal entry %d: %w", line-1, err)
			}
			if e.Seq != st.Draws+1 {
				return nil, fmt.Errorf("campaign: journal entry %d: sequence %d, want %d", line-1, e.Seq, st.Draws+1)
			}
			st.Draws = e.Seq
			a := assign.Assignment{Topo: st.Header.Topo, Ctx: e.Ctx}
			if err := a.Validate(); err != nil {
				return nil, fmt.Errorf("campaign: journal entry %d: %w", line-1, err)
			}
			if e.Error != "" {
				st.Quarantined++
				st.Log = append(st.Log, core.ResumeDraw{Assignment: a, Quarantined: true})
			} else {
				st.Log = append(st.Log, core.ResumeDraw{Assignment: a, Perf: e.Perf})
				st.Results = append(st.Results, core.SampleResult{Assignment: a, Perf: e.Perf})
			}
		}
		spill = spill[:0]
	}
	if line == 0 {
		return nil, ErrJournalNoHeader
	}
	return st, nil
}

// Campaign converts the recovered measurements into a regular campaign
// (quarantined entries dropped), for the save/merge/analyze workflow.
func (s *JournalState) Campaign() *Campaign {
	c := New(s.Header.Benchmark, s.Header.Topo, s.Header.Seed)
	for _, r := range s.Results {
		c.Add(r.Assignment, r.Perf)
	}
	return c
}

// JournalRunner is a core.ContextRunner middleware that write-ahead logs
// every completed measurement through Journal.Commit: successes and
// quarantines are journaled, campaign-cancellation errors are not — the
// draw never completed and the resumed run will re-execute it. Campaigns
// commit through Run instead; JournalRunner remains for callers that
// drive core.IterateContext directly.
type JournalRunner struct {
	Journal *Journal
	Runner  core.ContextRunner
}

// MeasureContext implements core.ContextRunner.
func (r JournalRunner) MeasureContext(ctx context.Context, a assign.Assignment) (float64, error) {
	perf, err := r.Runner.MeasureContext(ctx, a)
	if jerr := r.Journal.Commit(a, perf, err); jerr != nil {
		return 0, jerr
	}
	return perf, err
}

// Measure implements core.Runner with a background context.
func (r JournalRunner) Measure(a assign.Assignment) (float64, error) {
	return r.MeasureContext(context.Background(), a)
}
