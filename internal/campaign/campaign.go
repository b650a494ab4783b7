// Package campaign persists and runs measurement campaigns. On a real
// machine a 5000-assignment campaign takes ~2 hours of testbed time (§5.4
// of the paper), so its record must be durable: the write-ahead journal
// (journal.go) holds every draw as it completes, successes and
// quarantines alike, and is the campaign's only record. Run (run.go)
// executes a campaign through it, a resume replays it, and cmd/evtfit
// -journal fits its successful draws offline.
package campaign

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

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
