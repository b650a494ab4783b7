package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// This file is the traced run's span recorder. Spans are recorded only by
// the benchmark's own wrappers around the calls it makes into each layer's
// public functions; the program under test is not modified. Spans stay in
// memory while the workload runs, are written out when it ends, and the
// per-layer self times are derived from them.

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started.
type span struct {
	name   string
	start  int64
	end    int64
	parent int    // index of the causing span; -1 for a root, detached if unknown
	track  string // the campaign (or sample pass) the span belongs to
	n      int    // work items the span covered: draws, assignments, ...
	// contain marks a span synthesized after the fact from callback
	// timestamps (a batch chunk): spans of its track recorded with the same
	// parent that fall inside its interval are re-parented to it.
	contain bool
}

func (s span) dur() int64 { return s.end - s.start }

// tracer records spans; safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, parent int, track string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: start, parent: parent, track: track})
	return len(t.spans) - 1
}

// end closes span id, recording that it covered n work items, and
// returns its end time.
func (t *tracer) end(id, n int) int64 {
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.spans[id].n = n
	t.mu.Unlock()
	return end
}

// add records a finished span whose times were taken elsewhere.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// firstAfter returns the earliest start among the spans of track opened
// after index from, or -1 when there is none.
func (t *tracer) firstAfter(from int, track string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := int64(-1)
	for _, s := range t.spans[from+1:] {
		if s.track == track && (first < 0 || s.start < first) {
			first = s.start
		}
	}
	return first
}

// spanRef names the span that causes the calls made under a context.
type spanRef struct {
	tr    *tracer
	id    int
	track string
}

type spanKey struct{}

// withSpan makes span id of tr the parent of the spans opened under ctx.
func withSpan(ctx context.Context, tr *tracer, id int, track string) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{tr: tr, id: id, track: track})
}

// spanOf returns the span ctx carries.
func spanOf(ctx context.Context) (spanRef, bool) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	return ref, ok
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int   // spans
	items int   // work items covered
	total int64 // summed durations, ns
	self  int64 // summed self times, ns
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	layers map[string]*layerStat
	// rootTotal and rootSelf sum the duration and self time of the root
	// spans (one per campaign or sample pass): rootSelf is the time no
	// recorded layer accounts for.
	rootTotal, rootSelf int64
}

// stat returns the aggregate for name (zero when no span had it).
func (s traceSummary) stat(name string) layerStat {
	if l, ok := s.layers[name]; ok {
		return *l
	}
	return layerStat{}
}

// summarize derives self times: a span's self time is its duration minus
// the part of its interval that its children cover. Children may overlap
// (parallel workers), so the covered part is the union of their intervals.
func summarize(spans []span) traceSummary {
	spans = append([]span(nil), spans...)
	adopt(spans)
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	sum := traceSummary{layers: make(map[string]*layerStat)}
	for i, s := range spans {
		self := s.dur() - covered(children[i], s.start, s.end)
		l := sum.layers[s.name]
		if l == nil {
			l = &layerStat{}
			sum.layers[s.name] = l
		}
		l.count++
		l.items += s.n
		l.total += s.dur()
		l.self += self
		if s.parent == -1 {
			sum.rootTotal += s.dur()
			sum.rootSelf += self
		}
	}
	return sum
}

// adopt re-parents spans into the synthesized container spans of their
// track that enclose them.
func adopt(spans []span) {
	type box struct {
		i          int
		start, end int64
	}
	boxes := make(map[string][]box)
	for i, s := range spans {
		if s.contain {
			boxes[s.track] = append(boxes[s.track], box{i, s.start, s.end})
		}
	}
	for _, bs := range boxes {
		sort.Slice(bs, func(a, b int) bool { return bs[a].start < bs[b].start })
	}
	for i := range spans {
		s := &spans[i]
		bs := boxes[s.track]
		if s.contain || len(bs) == 0 {
			continue
		}
		k := sort.Search(len(bs), func(j int) bool { return bs[j].start > s.start }) - 1
		if k < 0 {
			continue
		}
		b := bs[k]
		if s.end <= b.end && spans[b.i].parent == s.parent {
			s.parent = b.i
		}
	}
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
			continue
		}
		curHi = max(curHi, b)
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// write saves the spans as CSV: name, start and end in ns, parent index,
// track and work items.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,track,items")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%s,%d\n", s.name, s.start, s.end, s.parent, s.track, s.n)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
