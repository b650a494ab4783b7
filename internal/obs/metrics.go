// Package obs is the repo's observability layer: a dependency-free
// metrics registry (counters, gauges, histograms) with Prometheus
// text-format exposition over HTTP.
//
// A measurement campaign is hours of testbed time (§5.4); once it runs
// on a farm of remote testbeds behind retries and failover, operators
// need to see retries, quarantines, worker utilization and ÛPB
// convergence while the campaign runs, not in a post-mortem.
//
// Two rules shape the design:
//
//  1. Zero overhead when disabled. Every instrument is nil-safe — a
//     method on a nil *Counter, *Gauge, *Histogram or a nil *Registry is
//     a no-op — so instrumented code paths pay one nil check and no
//     allocation when nobody is watching.
//  2. No influence on the campaign. Instruments only observe; they
//     never touch the RNG, the draw order or the commit sequence, so
//     the deterministic-equivalence guarantee (journal bytes identical
//     across worker counts) holds with instrumentation on or off.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "worker", Value: "3"}.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing float64. All methods are atomic
// and nil-safe: a nil Counter silently discards updates.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta. Negative or non-finite deltas are
// ignored — a counter only goes up.
func (c *Counter) Add(delta float64) {
	if c == nil || delta <= 0 || math.IsNaN(delta) || math.IsInf(delta, 1) {
		return
	}
	for {
		old := c.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value returns the current total; 0 for a nil counter.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 that can go up and down. All methods are atomic and
// nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta (negative deltas allowed).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value; 0 for a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed cumulative buckets, Prometheus
// style. Observations and exposition may race freely; a scrape sees a
// consistent-enough snapshot (bucket counts may trail the total count by
// in-flight observations, never the reverse by more than the race
// window). All methods are nil-safe.
type Histogram struct {
	bounds []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	inf    atomic.Uint64
	sum    Counter // reuse the CAS float accumulator
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.sum.forceAdd(v) // sums may include zero or negative observations
	h.count.Add(1)
}

// forceAdd adds delta without Counter's monotonicity guard, for the
// histogram sum, which may include zero or negative observations.
func (c *Counter) forceAdd(delta float64) {
	if delta == 0 || math.IsNaN(delta) {
		return
	}
	for {
		old := c.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + delta)
		if c.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Count returns how many values were observed; 0 for a nil histogram.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values; 0 for a nil histogram.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// DurationBuckets are exposition bounds suited to measurement latencies:
// 1 ms up to ~30 s (one §5.4 testbed measurement is ~1.5 s).
func DurationBuckets() []float64 {
	return []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instrument of a family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	series     []*series
}

// Registry holds instruments and renders them in Prometheus text format.
// A nil *Registry hands out nil instruments, so a subsystem constructed
// without observability runs uninstrumented at no cost. Registration
// takes a lock; the instruments themselves are lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func labelsKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// register returns the family's series for labels, creating both as
// needed. It panics when name is reused with a different kind — that is
// a programming error no campaign should run with.
func (r *Registry) register(kind metricKind, name, help string, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	key := labelsKey(labels)
	for _, s := range f.series {
		if labelsKey(s.labels) == key {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...)}
	f.series = append(f.series, s)
	return s
}

// Counter registers (or finds) a counter. Nil-safe: a nil registry
// returns a nil instrument.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.register(kindCounter, name, help, labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge registers (or finds) a gauge. Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.register(kindGauge, name, help, labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram registers (or finds) a histogram with the given bucket upper
// bounds (+Inf is implicit). Nil-safe.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.register(kindHistogram, name, help, labels)
	if s.h == nil {
		s.h = newHistogram(bounds)
	}
	return s.h
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		// Prometheus label escaping: only \, " and newline, not Go %q.
		fmt.Fprintf(b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	b.WriteByte('}')
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families in registration order.
// Nil-safe: a nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				b.WriteByte(' ')
				b.WriteString(formatValue(s.c.Value()))
				b.WriteByte('\n')
			case kindGauge:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				b.WriteByte(' ')
				b.WriteString(formatValue(s.g.Value()))
				b.WriteByte('\n')
			case kindHistogram:
				h := s.h
				var cum uint64
				for i, bound := range h.bounds {
					cum += h.counts[i].Load()
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, s.labels, L("le", formatValue(bound)))
					fmt.Fprintf(&b, " %d\n", cum)
				}
				cum += h.inf.Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, s.labels, L("le", "+Inf"))
				fmt.Fprintf(&b, " %d\n", cum)
				fmt.Fprintf(&b, "%s_sum", f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %s\n", formatValue(h.Sum()))
				fmt.Fprintf(&b, "%s_count", f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
