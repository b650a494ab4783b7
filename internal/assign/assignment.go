// Package assign represents task-to-hardware-context assignments and the
// combinatorics around them: validity, symmetry (canonical forms), uniform
// random sampling (the paper's §3.3.2 Step 1 method), exact counting of the
// assignment population (Table 1) and exhaustive enumeration for small
// workloads (the ~1500-assignment studies of Figures 1 and 3).
package assign

import (
	"errors"
	"fmt"
	"math/bits"
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
// reproducibility contract. Up to a full T2 the only allocation is the
// returned string.
func (a Assignment) CanonicalKey() string {
	var buf [256]byte
	return string(a.AppendCanonicalKey(buf[:0]))
}

// keyPipes is how many pipes AppendCanonicalKey's stack scratch holds, a
// full T2's 16, with one word of task mask each (up to 64 tasks) plus the
// occupied-pipe bitmask. Larger inputs spill to the heap.
const keyPipes = 16

// AppendCanonicalKey appends CanonicalKey's bytes to dst and returns the
// extended buffer. Each pipe's tasks become a bitmask, whose set bits list
// them in ascending order; the occupied pipes of each core, then the
// occupied cores, are put in the order their renderings compare bytewise
// (pipeHead.before), and the key is rendered once, in that order,
// straight into dst. With room in dst and up to a full T2 it allocates
// nothing.
func (a Assignment) AppendCanonicalKey(dst []byte) []byte {
	ppc := a.Topo.PipesPerCore
	nPipes, nTasks := a.Topo.Pipes(), len(a.Ctx)
	if nPipes <= 0 || nTasks == 0 {
		return dst
	}
	// One scratch holds the occupied-pipe bitmask, then w words of task
	// mask per pipe.
	w, nOcc := (nTasks+63)/64, (nPipes+63)/64
	var wordArr [keyPipes + 1]uint64
	words := scratch(wordArr[:], nOcc+nPipes*w)
	occ, masks := words[:nOcc], words[nOcc:]
	for t, ctx := range a.Ctx {
		p := a.Topo.PipeOf(ctx)
		occ[p/64] |= 1 << (p % 64)
		masks[p*w+t/64] |= 1 << (t % 64)
	}
	mask := func(p int) []uint64 { return masks[p*w : p*w+w] }

	// pipes lists the occupied pipes core by core (they arrive in
	// ascending order), each core's run sorted; cores holds one span of
	// pipes per occupied core, sorted by the core's first pipe.
	var pipeArr [keyPipes]pipeHead
	var coreArr [keyPipes]span
	pipes := scratch(pipeArr[:], min(nPipes, nTasks))[:0]
	cores := scratch(coreArr[:], min(nPipes, nTasks))[:0]
	coreEnd := 0 // first pipe past the current core
	for wi, word := range occ {
		for ; word != 0; word &= word - 1 {
			p := wi*64 + bits.TrailingZeros64(word)
			if p >= coreEnd {
				coreEnd = (p/ppc + 1) * ppc
				cores = append(cores, span{len(pipes), len(pipes)})
			}
			first := nextTask(mask(p), 0)
			pipes = append(pipes, pipeHead{p, first, nextTask(mask(p), first+1) >= 0})
			c := &cores[len(cores)-1]
			c.hi++
			// Insertion sort: a core has only PipesPerCore pipes.
			for y := c.hi - 1; y > c.lo && pipes[y].before(pipes[y-1]); y-- {
				pipes[y], pipes[y-1] = pipes[y-1], pipes[y]
			}
		}
	}
	// A core renders as its sorted pipes joined by '|', and the first
	// pipes of two cores differ before either ends: the core whose first
	// pipe renders first renders first.
	for x := 1; x < len(cores); x++ {
		for y := x; y > 0 && pipes[cores[y].lo].before(pipes[cores[y-1].lo]); y-- {
			cores[y], cores[y-1] = cores[y-1], cores[y]
		}
	}

	for i, c := range cores {
		if i > 0 {
			dst = append(dst, " / "...)
		}
		for j, ph := range pipes[c.lo:c.hi] {
			if j > 0 {
				dst = append(dst, '|')
			}
			dst = append(dst, '[')
			for wi, word := range mask(ph.pipe) {
				for ; word != 0; word &= word - 1 {
					t := wi*64 + bits.TrailingZeros64(word)
					if t != ph.first {
						dst = append(dst, ' ')
					}
					dst = appendTask(dst, t)
				}
			}
			dst = append(dst, ']')
		}
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

// appendTask appends task t in decimal.
func appendTask(dst []byte, t int) []byte {
	if t < 10 {
		return append(dst, byte('0'+t))
	}
	return strconv.AppendInt(dst, int64(t), 10)
}

// span is the run pipes[lo:hi] of one core's occupied pipes.
type span struct{ lo, hi int }

// pipeHead is an occupied pipe with what orders its rendering "[t0 t1
// ...]" among the others: its lowest task and whether more follow. Two
// pipes hold disjoint tasks, so their renderings part within the first
// task's digits or at the byte after them.
type pipeHead struct {
	pipe, first int
	more        bool
}

// before reports whether x renders before y, bytewise. Tasks with as many
// digits compare as numbers. When the lower task d has fewer digits than
// e, d's digits compare with e's leading ones, and when those match
// (d = 1, e = 12) d's follower decides: ' ' sorts before a digit, ']'
// after one.
func (x pipeHead) before(y pipeHead) bool {
	if x.first > y.first {
		return !y.before(x)
	}
	d, e := x.first, y.first
	nd, ne := decimalDigits(d), decimalDigits(e)
	if nd == ne {
		return true
	}
	for ; ne > nd; ne-- {
		e /= 10
	}
	if e != d {
		return d < e
	}
	return x.more
}

// nextTask returns the lowest task of mask m at or above t, or -1.
func nextTask(m []uint64, t int) int {
	for i := t / 64; i < len(m); i++ {
		word := m[i]
		if i == t/64 {
			word &= ^uint64(0) << (t % 64)
		}
		if word != 0 {
			return i*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

func decimalDigits(n int) int {
	k := 1
	for ; n >= 10; n /= 10 {
		k++
	}
	return k
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
