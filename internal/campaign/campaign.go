// Package campaign persists measurement campaigns: the (assignment,
// performance) records a statistical study is built from. On a real
// machine a 5000-assignment campaign takes ~2 hours of testbed time (§5.4
// of the paper), so being able to save, reload, merge and re-analyze
// campaigns without re-running them is a first-class workflow. The format
// is JSON-lines with a header record, self-describing and diff-friendly.
package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"optassign/internal/assign"
	"optassign/internal/core"
	"optassign/internal/t2"
)

// FormatVersion identifies the on-disk layout.
const FormatVersion = 1

// Header is the campaign's first JSON line.
type Header struct {
	Format    int         `json:"format"`
	Benchmark string      `json:"benchmark,omitempty"`
	Topo      t2.Topology `json:"topology"`
	Seed      int64       `json:"seed,omitempty"`
	Notes     string      `json:"notes,omitempty"`
}

// Record is one measured assignment.
type Record struct {
	Perf float64 `json:"perf"`
	Ctx  []int   `json:"ctx"`
}

// Campaign is a measurement campaign in memory.
type Campaign struct {
	Header  Header
	Records []Record
}

// New starts an empty campaign for the given metadata.
func New(benchmark string, topo t2.Topology, seed int64) *Campaign {
	return &Campaign{Header: Header{Format: FormatVersion, Benchmark: benchmark, Topo: topo, Seed: seed}}
}

// Add appends one measured assignment.
func (c *Campaign) Add(a assign.Assignment, perf float64) {
	c.Records = append(c.Records, Record{Perf: perf, Ctx: append([]int(nil), a.Ctx...)})
}

// AddResults appends a batch of core sample results.
func (c *Campaign) AddResults(results []core.SampleResult) {
	for _, r := range results {
		c.Add(r.Assignment, r.Perf)
	}
}

// Len returns the number of records.
func (c *Campaign) Len() int { return len(c.Records) }

// Perfs extracts the performance column, the estimator's input.
func (c *Campaign) Perfs() []float64 {
	out := make([]float64, len(c.Records))
	for i, r := range c.Records {
		out[i] = r.Perf
	}
	return out
}

// Results converts the campaign back into core sample results.
func (c *Campaign) Results() []core.SampleResult {
	out := make([]core.SampleResult, len(c.Records))
	for i, r := range c.Records {
		out[i] = core.SampleResult{
			Assignment: assign.Assignment{Topo: c.Header.Topo, Ctx: append([]int(nil), r.Ctx...)},
			Perf:       r.Perf,
		}
	}
	return out
}

// Validate checks the header and that every record's assignment is valid
// on the campaign's topology.
func (c *Campaign) Validate() error {
	if c.Header.Format != FormatVersion {
		return fmt.Errorf("campaign: unsupported format %d", c.Header.Format)
	}
	if err := c.Header.Topo.Validate(); err != nil {
		return err
	}
	for i, r := range c.Records {
		a := assign.Assignment{Topo: c.Header.Topo, Ctx: r.Ctx}
		if err := a.Validate(); err != nil {
			return fmt.Errorf("campaign: record %d: %w", i, err)
		}
		if r.Perf <= 0 {
			return fmt.Errorf("campaign: record %d: non-positive performance %v", i, r.Perf)
		}
	}
	return nil
}

// Save writes the campaign as JSON lines: header first, one record per
// line after it.
func (c *Campaign) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(c.Header); err != nil {
		return fmt.Errorf("campaign: encoding header: %w", err)
	}
	for i := range c.Records {
		if err := enc.Encode(c.Records[i]); err != nil {
			return fmt.Errorf("campaign: encoding record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Load reads a campaign written by Save and validates it.
func Load(r io.Reader) (*Campaign, error) {
	dec := json.NewDecoder(r)
	var c Campaign
	if err := dec.Decode(&c.Header); err != nil {
		return nil, fmt.Errorf("campaign: reading header: %w", err)
	}
	for {
		var rec Record
		err := dec.Decode(&rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: reading record %d: %w", len(c.Records), err)
		}
		c.Records = append(c.Records, rec)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Merge combines campaigns over the same topology into one (e.g. several
// measurement sessions of the same workload). Benchmark names must agree
// when both are set.
func Merge(cs ...*Campaign) (*Campaign, error) {
	if len(cs) == 0 {
		return nil, errors.New("campaign: nothing to merge")
	}
	out := &Campaign{Header: cs[0].Header}
	for _, c := range cs {
		if c.Header.Topo != out.Header.Topo {
			return nil, fmt.Errorf("campaign: topology mismatch: %v vs %v", c.Header.Topo, out.Header.Topo)
		}
		if c.Header.Benchmark != "" && out.Header.Benchmark != "" && c.Header.Benchmark != out.Header.Benchmark {
			return nil, fmt.Errorf("campaign: benchmark mismatch: %q vs %q", c.Header.Benchmark, out.Header.Benchmark)
		}
		out.Records = append(out.Records, c.Records...)
	}
	return out, nil
}

// Commit is the campaign as a core.CommitFunc (RunConfig.Commit):
// successful measurements are recorded, failures are not — the campaign
// file is the cleaned result; the journal keeps the failures.
func (c *Campaign) Commit(a assign.Assignment, perf float64, measureErr error) error {
	if measureErr == nil {
		c.Add(a, perf)
	}
	return nil
}

// ReadValues parses whitespace/line-separated float64s with '#' comments —
// the bare-numbers input format of cmd/evtfit, for measurements collected
// outside this library.
func ReadValues(r io.Reader, name string) ([]float64, error) {
	var out []float64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		for _, field := range strings.Fields(text) {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %q is not a number", name, line, field)
			}
			out = append(out, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return out, nil
}
