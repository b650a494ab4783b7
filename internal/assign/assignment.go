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
// reproducibility contract. Up to 64 tasks and pipelines the only
// allocation is the returned string.
func (a Assignment) CanonicalKey() string {
	var buf [scratchBytes]byte
	return string(a.AppendCanonicalKey(buf[:0]))
}

// AppendCanonicalKey's stack scratch holds up to scratchItems tasks and
// pipelines and renderings up to scratchBytes long: a full 64-context T2
// fits, and larger inputs spill to the heap.
const (
	scratchItems = 64
	scratchBytes = 256
)

// AppendCanonicalKey appends CanonicalKey's bytes to dst and returns the
// extended buffer. It buckets tasks by pipe with one CSR pass and renders
// into fixed-size scratch on the stack, so with room in dst it allocates
// nothing.
func (a Assignment) AppendCanonicalKey(dst []byte) []byte {
	nPipes := a.Topo.Pipes()
	nTasks := len(a.Ctx)
	if nPipes <= 0 || nTasks == 0 {
		return dst
	}
	// CSR bucketing: tasks[pos[p]:pos[p+1]] become pipe p's tasks.
	var posArr [scratchItems + 1]int
	var tasksArr [scratchItems]int
	pos, tasks := scratch(posArr[:], nPipes+1), scratch(tasksArr[:], nTasks)
	clear(pos)
	for _, ctx := range a.Ctx {
		pos[a.Topo.PipeOf(ctx)]++
	}
	for p := 1; p < nPipes; p++ {
		pos[p] += pos[p-1]
	}
	pos[nPipes] = nTasks
	for task := nTasks - 1; task >= 0; task-- {
		p := a.Topo.PipeOf(a.Ctx[task])
		pos[p]--
		tasks[pos[p]] = task
	}
	// Render each occupied pipe as "[t0 t1 ...]" (tasks ascending) into one
	// shared buffer; pipeSegs records the slice per pipe for later sorting.
	var bufArr, coreArr [scratchBytes]byte
	var pipeArr, coreSegArr [scratchItems]seg
	buf := bufArr[:0]
	pipeSegs := pipeArr[:0]
	for p := 0; p < nPipes; p++ {
		ts := tasks[pos[p]:pos[p+1]]
		if len(ts) == 0 {
			continue // unoccupied pipe: omitted, exactly like the map form
		}
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
		pipeSegs = append(pipeSegs, seg{bStart, len(buf), p / a.Topo.PipesPerCore})
	}
	// Per core: sort its pipe renderings lexicographically and join with
	// '|'. Pipe segments arrive in ascending pipe (hence core) order, so
	// each core's segments are contiguous.
	coreBuf := coreArr[:0]
	coreSegs := coreSegArr[:0]
	for i := 0; i < len(pipeSegs); {
		j := i
		for j < len(pipeSegs) && pipeSegs[j].core == pipeSegs[i].core {
			j++
		}
		group := pipeSegs[i:j]
		sortSegs(buf, group)
		cStart := len(coreBuf)
		for k, s := range group {
			if k > 0 {
				coreBuf = append(coreBuf, '|')
			}
			coreBuf = append(coreBuf, buf[s.start:s.end]...)
		}
		coreSegs = append(coreSegs, seg{cStart, len(coreBuf), 0})
		i = j
	}
	// Sort the core renderings and join with " / ".
	sortSegs(coreBuf, coreSegs)
	for i, s := range coreSegs {
		if i > 0 {
			dst = append(dst, " / "...)
		}
		dst = append(dst, coreBuf[s.start:s.end]...)
	}
	return dst
}

// scratch returns arr[:n] when it fits, else a fresh slice of length n.
func scratch[T any](arr []T, n int) []T {
	if n <= len(arr) {
		return arr[:n]
	}
	return make([]T, n)
}

// seg is one rendering in a key's scratch buffer: bytes [start, end), of
// a pipe on core core.
type seg struct{ start, end, core int }

// sortSegs insertion-sorts segs by the bytes of buf they cover: a core
// has at most PipesPerCore segments, and the list of cores is short.
func sortSegs(buf []byte, segs []seg) {
	for x := 1; x < len(segs); x++ {
		for y := x; y > 0 && bytes.Compare(buf[segs[y].start:segs[y].end], buf[segs[y-1].start:segs[y-1].end]) < 0; y-- {
			segs[y], segs[y-1] = segs[y-1], segs[y]
		}
	}
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
