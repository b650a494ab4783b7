// Package assign represents task-to-hardware-context assignments and the
// combinatorics around them: validity, symmetry (canonical forms), uniform
// random sampling (the paper's §3.3.2 Step 1 method), exact counting of the
// assignment population (Table 1) and exhaustive enumeration for small
// workloads (the ~1500-assignment studies of Figures 1 and 3).
package assign

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"optassign/internal/t2"
)

// Assignment maps every task of a workload to a hardware context of a
// processor. Ctx[i] is the context executing task i.
type Assignment struct {
	Topo t2.Topology
	Ctx  []int
}

// Errors returned by Validate.
var (
	ErrContextOutOfRange = errors.New("assign: context out of range")
	ErrContextCollision  = errors.New("assign: two tasks mapped to the same context")
	ErrNoTasks           = errors.New("assign: assignment has no tasks")
)

// Tasks returns the number of tasks in the assignment.
func (a Assignment) Tasks() int { return len(a.Ctx) }

// Validate checks the assignment is well formed: the topology is valid,
// every context index is in range, and no two tasks share a context (Netra
// DPS binds at most one task per strand).
func (a Assignment) Validate() error {
	if err := a.Topo.Validate(); err != nil {
		return err
	}
	if len(a.Ctx) == 0 {
		return ErrNoTasks
	}
	v := a.Topo.Contexts()
	// used is indexed by context; up to 64 contexts (a whole T2) it lives
	// on the stack, so validating a draw allocates nothing.
	var small [64]bool
	used := small[:]
	if v > len(small) {
		used = make([]bool, v)
	}
	for i, c := range a.Ctx {
		if c < 0 || c >= v {
			return fmt.Errorf("%w: task %d -> context %d (V=%d)", ErrContextOutOfRange, i, c, v)
		}
		if used[c] {
			j := slices.Index(a.Ctx, c)
			return fmt.Errorf("%w: tasks %d and %d -> context %d", ErrContextCollision, j, i, c)
		}
		used[c] = true
	}
	return nil
}

// Clone returns a deep copy.
func (a Assignment) Clone() Assignment {
	return Assignment{Topo: a.Topo, Ctx: append([]int(nil), a.Ctx...)}
}

// TasksByPipe groups task indices by the global pipeline they run in.
// Pipelines with no tasks are omitted.
func (a Assignment) TasksByPipe() map[int][]int {
	m := make(map[int][]int)
	for task, ctx := range a.Ctx {
		p := a.Topo.PipeOf(ctx)
		m[p] = append(m[p], task)
	}
	return m
}

// TasksByCore groups task indices by core. Cores with no tasks are omitted.
func (a Assignment) TasksByCore() map[int][]int {
	m := make(map[int][]int)
	for task, ctx := range a.Ctx {
		c := a.Topo.CoreOf(ctx)
		m[c] = append(m[c], task)
	}
	return m
}

// CanonicalKey returns a string that is identical for exactly those
// assignments that are equivalent under the hardware symmetries: permuting
// cores, permuting pipelines within a core, and permuting strand slots
// within a pipeline. Performance depends only on this equivalence class
// (which resources are shared by whom), not on the concrete context labels.
//
// The rendered bytes are exactly canonicalKeyRef's (the straightforward
// map/sort/fmt construction) — the testbed keys its deterministic
// measurement noise on this string, so the encoding is part of the
// reproducibility contract. This implementation is the memoization hot
// path: it buckets tasks with one CSR pass and renders into preallocated
// byte buffers instead of allocating maps, per-pipe slices and strings.
func (a Assignment) CanonicalKey() string {
	nPipes := a.Topo.Pipes()
	nTasks := len(a.Ctx)
	if nPipes <= 0 || nTasks == 0 {
		return ""
	}
	// CSR bucketing: counts[p] becomes the end offset of pipe p's tasks.
	counts := make([]int, nPipes)
	for _, ctx := range a.Ctx {
		counts[a.Topo.PipeOf(ctx)]++
	}
	for p := 1; p < nPipes; p++ {
		counts[p] += counts[p-1]
	}
	ends := append([]int(nil), counts...)
	tasks := make([]int, nTasks)
	for task := nTasks - 1; task >= 0; task-- {
		p := a.Topo.PipeOf(a.Ctx[task])
		counts[p]--
		tasks[counts[p]] = task
	}
	// Render each occupied pipe as "[t0 t1 ...]" (tasks ascending) into one
	// shared buffer; pipeSeg records the slice per pipe for later sorting.
	type seg struct{ start, end int }
	buf := make([]byte, 0, nTasks*4+2*nPipes)
	pipeSegs := make([]seg, 0, min(nPipes, nTasks))
	pipeCore := make([]int, 0, min(nPipes, nTasks))
	for p := 0; p < nPipes; p++ {
		start := 0
		if p > 0 {
			start = ends[p-1]
		}
		if start == ends[p] {
			continue // unoccupied pipe: omitted, exactly like the map form
		}
		ts := tasks[start:ends[p]]
		slices.Sort(ts)
		bStart := len(buf)
		buf = append(buf, '[')
		for i, t := range ts {
			if i > 0 {
				buf = append(buf, ' ')
			}
			buf = strconv.AppendInt(buf, int64(t), 10)
		}
		buf = append(buf, ']')
		pipeSegs = append(pipeSegs, seg{bStart, len(buf)})
		pipeCore = append(pipeCore, p/a.Topo.PipesPerCore)
	}
	// Per core: sort its pipe renderings lexicographically and join with
	// '|'. Pipe segments arrive in ascending pipe (hence core) order, so
	// each core's segments are contiguous.
	coreBuf := make([]byte, 0, len(buf)+len(pipeSegs))
	coreSegs := make([]seg, 0, len(pipeSegs))
	for i := 0; i < len(pipeSegs); {
		j := i
		for j < len(pipeSegs) && pipeCore[j] == pipeCore[i] {
			j++
		}
		group := pipeSegs[i:j]
		// Insertion sort: a core has at most PipesPerCore segments.
		for x := 1; x < len(group); x++ {
			for y := x; y > 0 && bytes.Compare(buf[group[y].start:group[y].end], buf[group[y-1].start:group[y-1].end]) < 0; y-- {
				group[y], group[y-1] = group[y-1], group[y]
			}
		}
		cStart := len(coreBuf)
		for k, s := range group {
			if k > 0 {
				coreBuf = append(coreBuf, '|')
			}
			coreBuf = append(coreBuf, buf[s.start:s.end]...)
		}
		coreSegs = append(coreSegs, seg{cStart, len(coreBuf)})
		i = j
	}
	// Sort the core renderings and join with " / ".
	for x := 1; x < len(coreSegs); x++ {
		for y := x; y > 0 && bytes.Compare(coreBuf[coreSegs[y].start:coreSegs[y].end], coreBuf[coreSegs[y-1].start:coreSegs[y-1].end]) < 0; y-- {
			coreSegs[y], coreSegs[y-1] = coreSegs[y-1], coreSegs[y]
		}
	}
	out := make([]byte, 0, len(coreBuf)+3*len(coreSegs))
	for i, s := range coreSegs {
		if i > 0 {
			out = append(out, " / "...)
		}
		out = append(out, coreBuf[s.start:s.end]...)
	}
	return string(out)
}

// canonicalKeyRef is the original map/sort/fmt construction of the
// canonical key. It is kept as the executable specification: the property
// tests require CanonicalKey to reproduce its output byte for byte, and
// BenchmarkCanonicalKey quantifies what the rewrite saves.
func (a Assignment) canonicalKeyRef() string {
	// Core content := sorted list of pipe contents; pipe content := sorted
	// task IDs. Cores sorted by their rendered content.
	coreMap := make(map[int]map[int][]int) // core -> pipeInCore -> tasks
	for task, ctx := range a.Ctx {
		core := a.Topo.CoreOf(ctx)
		pipe := a.Topo.PipeOf(ctx) % a.Topo.PipesPerCore
		if coreMap[core] == nil {
			coreMap[core] = make(map[int][]int)
		}
		coreMap[core][pipe] = append(coreMap[core][pipe], task)
	}
	var cores []string
	for _, pipes := range coreMap {
		var rendered []string
		for _, tasks := range pipes {
			sort.Ints(tasks)
			rendered = append(rendered, fmt.Sprint(tasks))
		}
		sort.Strings(rendered)
		cores = append(cores, strings.Join(rendered, "|"))
	}
	sort.Strings(cores)
	return strings.Join(cores, " / ")
}

// String renders the assignment in the paper's {[a b][c]}{[d][]} style, one
// brace group per occupied core, brackets per pipeline.
func (a Assignment) String() string {
	byCore := a.TasksByCore()
	coreIDs := make([]int, 0, len(byCore))
	for c := range byCore {
		coreIDs = append(coreIDs, c)
	}
	sort.Ints(coreIDs)
	var b strings.Builder
	for _, core := range coreIDs {
		b.WriteString("{")
		for p := 0; p < a.Topo.PipesPerCore; p++ {
			b.WriteString("[")
			var ts []int
			for _, task := range byCore[core] {
				if a.Topo.PipeOf(a.Ctx[task])%a.Topo.PipesPerCore == p {
					ts = append(ts, task)
				}
			}
			sort.Ints(ts)
			for i, task := range ts {
				if i > 0 {
					b.WriteString(" ")
				}
				fmt.Fprintf(&b, "t%d", task)
			}
			b.WriteString("]")
		}
		b.WriteString("}")
	}
	return b.String()
}
