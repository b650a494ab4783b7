package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/jsonfmt"
	"optassign/internal/obs"
	"optassign/internal/t2"
	"optassign/internal/wal"
)

// JournalVersion identifies the write-ahead journal's on-disk layout.
const JournalVersion = 1

// JournalHeader is the journal's first JSON line: enough identity to
// refuse resuming against the wrong testbed or the wrong seed.
type JournalHeader struct {
	Format    int         `json:"format"`
	Benchmark string      `json:"benchmark,omitempty"`
	Topo      t2.Topology `json:"topology"`
	Tasks     int         `json:"tasks"`
	Seed      int64       `json:"seed,omitempty"`
	// Strategy is the search strategy's canonical spec (search.Spec),
	// e.g. "greedy(explore=0.1,init=200)". The draws are a deterministic
	// function of (seed, strategy, outcomes), so ResumeJournal refuses a
	// different strategy. Uniform's spec is "", which omitempty elides:
	// journals from before strategies parse as uniform, and uniform
	// journals keep the older format byte for byte.
	Strategy string `json:"strategy,omitempty"`
}

// JournalEntry is one completed measurement attempt: a performance for a
// success, an error string for a quarantine. Seq numbers the entries
// from 1, so a resume replays exactly the draws the killed run consumed.
//
// Perf has no omitempty: a perf == 0 success is journaled explicitly,
// not read as a failure missing its error. Success and quarantine differ
// by Error alone, so old journals without the field still load.
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
// 1.5 seconds". It is safe for concurrent use. After a failed write or
// sync it fails closed (wal.ErrFailed); ResumeJournal is the way on.
type Journal struct {
	mu      sync.Mutex
	f       *wal.File
	header  JournalHeader
	seq     int
	metrics *JournalMetrics
	line    []byte // Append's encode buffer, reused under mu
}

// JournalMetrics observes the write-ahead journal: entries by kind,
// bytes persisted, and sync latency. Constructed via NewJournalMetrics;
// a nil bundle disables recording per the internal/obs conventions.
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
// holds a journal — hours of measurements a forgotten -resume would
// destroy. Only the Force option overwrites one.
var ErrJournalExists = errors.New("campaign: journal already exists (resume it, or force overwrite)")

// ErrJournalBusy reports that another process (or another open handle in
// this one) holds the journal's exclusive lock: two writers would
// interleave entries. It wraps wal.ErrLocked; the coordinator surfaces
// it as HTTP 409.
var ErrJournalBusy = fmt.Errorf("campaign: journal is in use by another process: %w", wal.ErrLocked)

// CreateOption adjusts CreateJournal's behavior.
type CreateOption func(*createOptions)

type createOptions struct{ force bool }

// Force lets CreateJournal overwrite an existing journal. It truncates
// only under the exclusive lock, so it cannot destroy a journal another
// process is appending to: that fails with ErrJournalBusy.
func Force() CreateOption { return func(o *createOptions) { o.force = true } }

// CreateJournal starts a fresh journal at path and writes its header; an
// existing journal is ErrJournalExists unless Force is passed. The
// journal holds an exclusive flock until Close.
func CreateJournal(path string, h JournalHeader, opts ...CreateOption) (*Journal, error) {
	var o createOptions
	for _, opt := range opts {
		opt(&o)
	}
	h.Format = JournalVersion
	if err := h.Topo.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: journal header: %w", err)
	}
	flags := os.O_CREATE | os.O_EXCL
	if o.force {
		// No O_TRUNC: the truncation must wait for the lock, or a forced
		// create could destroy a journal mid-append by a live process.
		flags = os.O_CREATE
	}
	f, err := wal.OpenLocked(path, flags)
	switch {
	case errors.Is(err, fs.ErrExist):
		return nil, fmt.Errorf("%w: %s", ErrJournalExists, path)
	case errors.Is(err, wal.ErrLocked):
		return nil, fmt.Errorf("%w: %s", ErrJournalBusy, path)
	case err != nil:
		return nil, err
	}
	if o.force {
		if err := f.TruncateTo(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: truncating journal %s: %w", path, err)
		}
	}
	j := &Journal{f: f, header: h}
	if err := j.writeHeader(h); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// ResumeJournal reopens an existing journal for appending under its
// exclusive lock (ErrJournalBusy if held), loads it, verifies its header
// against h and continues the sequence where the interrupted run
// stopped. The state's Log is core.IterConfig.ResumeLog.
func ResumeJournal(path string, h JournalHeader) (*Journal, *JournalState, error) {
	f, err := wal.OpenLocked(path, 0)
	if errors.Is(err, wal.ErrLocked) {
		return nil, nil, fmt.Errorf("%w: %s", ErrJournalBusy, path)
	}
	if err != nil {
		return nil, nil, err
	}
	// Load through the locked descriptor: no other process can append or
	// truncate between the load and our first append. A partial final
	// line left by a crash is cut off, so the next append starts on a
	// fresh, well-formed line.
	st, err := ReadJournal(f)
	if err == nil {
		err = st.Header.resumableAs(h)
	}
	if err == nil {
		err = f.TruncateTo(st.validBytes)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f, header: st.Header, seq: st.Draws}, st, nil
}

// resumableAs reports why a campaign with header want cannot continue
// the journal headed h: another topology, task count, seed, benchmark
// (when both name one) or search strategy.
func (h JournalHeader) resumableAs(want JournalHeader) error {
	switch {
	case h.Topo != want.Topo:
		return fmt.Errorf("campaign: journal topology %v does not match testbed %v", h.Topo, want.Topo)
	case h.Tasks != want.Tasks:
		return fmt.Errorf("campaign: journal has %d tasks, testbed runs %d", h.Tasks, want.Tasks)
	case h.Seed != want.Seed:
		return fmt.Errorf("campaign: journal seed %d does not match campaign seed %d (resume would draw different assignments)", h.Seed, want.Seed)
	case h.Benchmark != "" && want.Benchmark != "" && h.Benchmark != want.Benchmark:
		return fmt.Errorf("campaign: journal benchmark %q does not match %q", h.Benchmark, want.Benchmark)
	case h.Strategy != want.Strategy:
		return fmt.Errorf("campaign: journal strategy %q does not match campaign strategy %q (resume would draw different assignments)",
			h.Strategy, want.Strategy)
	}
	return nil
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

// Append journals one successful measurement. A non-finite perf, which
// JSON cannot represent, is rejected as the testbed fault it is. The line
// is appendEntry's encoding, json.Marshal's bytes for the JournalEntry,
// and costs no allocation.
func (j *Journal) Append(a assign.Assignment, perf float64) error {
	if math.IsNaN(perf) || math.IsInf(perf, 0) {
		return fmt.Errorf("campaign: journal: non-finite performance %v for %s (testbed fault?)", perf, a)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.line = append(appendEntry(j.line[:0], j.seq+1, a.Ctx, perf), '\n')
	if err := j.write(j.line); err != nil {
		return err
	}
	if m := j.metrics; m != nil {
		m.Successes.Inc()
	}
	j.seq++
	return nil
}

// AppendFailure journals one quarantined measurement: the draw is
// consumed, the result is not usable. Its line, which carries an escaped
// error string, is json.Marshal's.
func (j *Journal) AppendFailure(a assign.Assignment, measureErr error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	msg := "measurement failed"
	if measureErr != nil {
		msg = measureErr.Error()
	}
	line, err := json.Marshal(JournalEntry{Seq: j.seq + 1, Ctx: a.Ctx, Error: msg})
	if err != nil {
		return fmt.Errorf("campaign: journal encode: %w", err)
	}
	if err := j.write(append(line, '\n')); err != nil {
		return err
	}
	if m := j.metrics; m != nil {
		m.Failures.Inc()
	}
	j.seq++
	return nil
}

var errJournalClosed = errors.New("campaign: journal is closed")

// appendEntry appends the JSON encoding of the success entry
// JournalEntry{Seq: seq, Ctx: ctx, Perf: perf} to dst, byte for byte what
// json.Marshal writes: a nil ctx is null, and perf, which must be finite,
// takes encoding/json's float format.
func appendEntry(dst []byte, seq int, ctx []int, perf float64) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, `,"ctx":`...)
	dst = jsonfmt.AppendInts(dst, ctx)
	dst = append(dst, `,"perf":`...)
	dst = jsonfmt.AppendFloat(dst, perf)
	return append(dst, '}')
}

// writeHeader marshals the header as the journal's first line.
func (j *Journal) writeHeader(h JournalHeader) error {
	line, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("campaign: journal encode: %w", err)
	}
	return j.write(append(line, '\n'))
}

// write appends one complete line. Callers hold j.mu (except
// construction). The write goes straight to the file descriptor — no
// userspace buffering — so a crashed process loses nothing that Append
// returned success for.
func (j *Journal) write(line []byte) error {
	if err := j.f.Append(line); errors.Is(err, os.ErrClosed) {
		return errJournalClosed
	} else if err != nil {
		return fmt.Errorf("campaign: journal write: %w", err)
	}
	if m := j.metrics; m != nil {
		m.Bytes.Add(float64(len(line)))
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

// Sync forces every line appended before the call to stable storage
// (power-loss safety). Appends go on beside the fsync, and Close waits
// for it; it is counted before it starts, so every sync Close waited for
// is counted when Close returns.
func (j *Journal) Sync() error {
	j.mu.Lock()
	m := j.metrics
	j.mu.Unlock()
	if m == nil {
		return j.f.Sync()
	}
	m.Syncs.Inc()
	start := time.Now()
	err := j.f.Sync()
	m.SyncSeconds.Observe(time.Since(start).Seconds())
	return err
}

// Close waits for any sync in flight, then closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }

// JournalState is everything recovered from a journal file.
type JournalState struct {
	Header JournalHeader
	// Results are the successful measurements, in execution order.
	Results []core.SampleResult
	// Quarantined counts the journaled failures.
	Quarantined int
	// Log is every journaled draw in draw order, successes and
	// quarantines alike — core.IterConfig.ResumeLog. Outcome-driven
	// search strategies replay it to rebuild their state on resume.
	Log []core.ResumeDraw
	// Draws is the total number of assignment draws the journaled run
	// consumed (successes + quarantines), len(Log).
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

// LoadJournal reads the journal file at path with ReadJournal.
func LoadJournal(path string) (*JournalState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}

// ReadJournal parses a journal written by Journal, tolerating a torn
// final line — a process killed mid-append — reported via Truncated.
// Corruption anywhere else is an error. Through wal.ScanLines, its memory
// tracks the parsed entries, never the file size. Every resume trusts
// this parser, so it is fuzzed (FuzzLoadJournal).
func ReadJournal(r io.Reader) (*JournalState, error) {
	st := &JournalState{}
	line := 0 // complete lines consumed; the header is line 1
	valid, torn, err := wal.ScanLines(r, func(content []byte) error {
		line++
		switch {
		case line == 1:
			if err := json.Unmarshal(content, &st.Header); err != nil {
				return fmt.Errorf("campaign: journal header: %w", err)
			}
			if st.Header.Format != JournalVersion {
				return fmt.Errorf("campaign: unsupported journal format %d", st.Header.Format)
			}
			if err := st.Header.Topo.Validate(); err != nil {
				return fmt.Errorf("campaign: journal header: %w", err)
			}
		case len(bytes.TrimSpace(content)) == 0:
		default:
			var e JournalEntry
			if err := json.Unmarshal(content, &e); err != nil {
				return fmt.Errorf("campaign: journal entry %d: %w", line-1, err)
			}
			if e.Seq != st.Draws+1 {
				return fmt.Errorf("campaign: journal entry %d: sequence %d, want %d", line-1, e.Seq, st.Draws+1)
			}
			st.Draws = e.Seq
			a := assign.Assignment{Topo: st.Header.Topo, Ctx: e.Ctx}
			if err := a.Validate(); err != nil {
				return fmt.Errorf("campaign: journal entry %d: %w", line-1, err)
			}
			if e.Error != "" {
				st.Quarantined++
				st.Log = append(st.Log, core.ResumeDraw{Assignment: a, Quarantined: true})
			} else {
				st.Log = append(st.Log, core.ResumeDraw{Assignment: a, Perf: e.Perf})
				st.Results = append(st.Results, core.SampleResult{Assignment: a, Perf: e.Perf})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if line == 0 {
		return nil, ErrJournalNoHeader
	}
	st.validBytes, st.Truncated = valid, torn
	return st, nil
}

// JournalRunner is a core.ContextRunner middleware that write-ahead logs
// every completed measurement through Journal.Commit. Campaigns commit
// through Run instead; JournalRunner remains for callers that drive
// core.IterateContext directly.
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
