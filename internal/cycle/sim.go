// Package cycle is a cycle-approximate simulator of a fine-grained
// multithreaded processor in the UltraSPARC T2 style: every hardware
// pipeline issues at most one instruction per cycle, round-robin among its
// ready strands; every core has a single load/store port; cache misses and
// long-latency private operations park a strand without consuming issue
// slots (latency hiding — the very mechanism that makes MMT processors
// throughput machines).
//
// It is the third, lowest-level measurement path of the repository (next to
// netdps.MeasureAnalytic and netdps.MeasureEngine): instead of charging
// contention through utilization curves, contention *emerges* from slot and
// port arbitration. The cross-validation tests check that the emergent
// behaviour agrees qualitatively with the analytic model — same winners,
// same bottlenecks — which grounds the calibrated curves used by the mass
// experiments.
//
// Run is event-driven: parked strands live in a wake-time min-heap instead
// of being polled every cycle, pipes with no awake strand are skipped, and
// globally idle stretches are jumped over in one step. reference.go keeps
// the original cycle-by-cycle polling loop as the executable specification;
// the differential tests prove both produce identical Results.
package cycle

import (
	"fmt"
	"math"

	"optassign/internal/proc"
	"optassign/internal/t2"
)

// opClass is the kind of work a strand performs next.
type opClass uint8

const (
	opIssue  opClass = iota // occupies the pipe's issue slot for one cycle
	opLSU                   // issue slot + the core's load/store port
	opMiss                  // parks the strand for a memory latency
	opSerial                // parks the strand in a private long-latency unit
)

// op is one unit of strand work.
type op struct {
	class   opClass
	latency int32 // park duration for opMiss/opSerial
}

// packetProgram is the per-packet op sequence of one task, derived from its
// demand vector. The same packet program repeats for every packet; strands
// with identical demand share one read-only program.
type packetProgram struct {
	ops []op
}

// missChunk splits aggregate miss latency into chunks of this many cycles
// so misses interleave with computation instead of forming one mega-stall.
const missChunk = 40

// buildProgram converts a demand vector into an op stream with the same
// aggregate resource occupancy:
//
//	IFU+IEU cycles   → that many issue ops
//	LSU cycles       → that many LSU ops
//	cache/mem cycles → miss ops totalling that latency
//	Serial cycles    → serial ops totalling that latency
//
// The op count is known up front, so the stream is built in one exactly
// sized allocation (the serial op is spliced in place within capacity).
func buildProgram(d proc.Demand) packetProgram {
	issue := int(math.Round(d.Res[proc.IFU] + d.Res[proc.IEU]))
	lsu := int(math.Round(d.Res[proc.LSU]))
	missTotal := int(math.Round(d.Res[proc.L1I] + d.Res[proc.L1D] + d.Res[proc.TLB] +
		d.Res[proc.L2] + d.Res[proc.MEM] + d.Res[proc.XBAR] + d.Res[proc.FPU] + d.Res[proc.CRY]))
	serial := int(math.Round(d.Serial))

	// Interleave the op classes so the stream is representative: compute
	// the total "tokens" and emit round-robin proportionally.
	misses := 0
	if missTotal > 0 {
		misses = (missTotal + missChunk - 1) / missChunk
	}
	total := issue + lsu + misses
	if total == 0 && serial == 0 {
		return packetProgram{ops: []op{{class: opIssue}}}
	}
	size := total
	if serial > 0 {
		size++
	}
	ops := make([]op, 0, size)
	remIssue, remLSU, remMissLat := issue, lsu, missTotal
	for remIssue > 0 || remLSU > 0 || remMissLat > 0 {
		if remIssue > 0 {
			n := remIssue / max(1, misses+1)
			if n < 1 {
				n = 1
			}
			for i := 0; i < n && remIssue > 0; i++ {
				ops = append(ops, op{class: opIssue})
				remIssue--
			}
		}
		if remLSU > 0 {
			n := remLSU / max(1, misses+1)
			if n < 1 {
				n = 1
			}
			for i := 0; i < n && remLSU > 0; i++ {
				ops = append(ops, op{class: opLSU})
				remLSU--
			}
		}
		if remMissLat > 0 {
			lat := missChunk
			if remMissLat < lat {
				lat = remMissLat
			}
			ops = append(ops, op{class: opMiss, latency: int32(lat)})
			remMissLat -= lat
		}
	}
	if serial > 0 {
		// One private long-latency region per packet (e.g. the intmul
		// multiplier), placed mid-stream. Splice within capacity.
		mid := len(ops) / 2
		ops = append(ops, op{})
		copy(ops[mid+1:], ops[mid:len(ops)-1])
		ops[mid] = op{class: opSerial, latency: int32(serial)}
	}
	return packetProgram{ops: ops}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// strand is one hardware context with a bound task. Strands are stored by
// value in one flat slice — the hot loop walks them without pointer
// chasing.
type strand struct {
	pipe, core int32
	// Pipeline-stage coupling.
	group, stage int32
	pc           int32 // index into program.ops for the current packet
	commLatency  int32 // added park when taking a packet from the queue
	wakeCycle    int64 // strand parked until this cycle
	packets      int64 // packets completed
	program      packetProgram
}

// Config tunes the simulation.
type Config struct {
	// QueueDepth is the R→P / P→T memory queue capacity.
	QueueDepth int
	// MaxCycles aborts runaway simulations (0 = no bound).
	MaxCycles int64
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// Result reports a finished simulation.
type Result struct {
	Cycles     int64
	TotalPPS   float64
	GroupPPS   []float64
	IssueBusy  []int64 // per pipe: cycles the issue slot was used
	LSUBusy    []int64 // per core: cycles the LSU port was used
	LSUBlocked int64   // strand-cycles lost waiting for a busy LSU port
}

// sim is one placement's simulation state. It is built and run once:
// Run advances the strands and queues in place, so a second Run would
// continue from the old timeline.
type sim struct {
	machine *proc.Machine
	cfg     Config
	strands []strand
	byPipe  [][]int32 // strand indices per global pipe
	occ     []int32   // pipes with at least one strand, ascending
	rrIndex []int
	groups  int
	// txByGroup indexes each group's stage-2 (T) strand, -1 for a group
	// with no tasks. Completion tracking and the PPS rollup both use it
	// instead of rescanning every strand.
	txByGroup []int32
	// queue occupancy per (group, boundary): boundary 0 = R→P, 1 = P→T.
	queues [][2]int
}

// Run simulates tasks placed per placement (context index per task) until
// every pipeline instance has transmitted `packets` packets, and returns
// throughput measured in simulated time. Tasks with the same Group form an
// R→P→T pipeline in index order, exactly like netdps testbeds lay them
// out; links (same shape as proc.Link) determine communication latency by
// placement distance.
func Run(machine *proc.Machine, tasks []proc.Task, links []proc.Link, placement []int, cfg Config, packets int) (Result, error) {
	s, err := newSim(machine, tasks, links, placement, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run(packets)
}

// newSim validates the machine and the placement and builds the strands,
// queues and per-pipe tables of one simulation.
func newSim(machine *proc.Machine, tasks []proc.Task, links []proc.Link, placement []int, cfg Config) (*sim, error) {
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("cycle: no tasks")
	}
	if len(placement) != len(tasks) {
		return nil, fmt.Errorf("cycle: %d tasks, %d placements", len(tasks), len(placement))
	}
	topo := machine.Topo
	seen := make([]bool, topo.Contexts())
	s := &sim{
		machine: machine,
		cfg:     cfg.withDefaults(),
		strands: make([]strand, 0, len(tasks)),
	}
	groups := 0
	progByDemand := make(map[proc.Demand]packetProgram) // tasks sharing a demand share a program
	// stageOf counts tasks per group; grown on demand so group numbering
	// needs no first pass.
	var stageOf []int32
	for i, task := range tasks {
		ctx := placement[i]
		if ctx < 0 || ctx >= topo.Contexts() || seen[ctx] {
			return nil, fmt.Errorf("cycle: invalid or duplicate context %d", ctx)
		}
		seen[ctx] = true
		if task.Group < 0 {
			return nil, fmt.Errorf("cycle: task %d has negative group %d", i, task.Group)
		}
		if task.Group >= groups {
			groups = task.Group + 1
		}
		for len(stageOf) < groups {
			stageOf = append(stageOf, 0)
		}
		prog, ok := progByDemand[task.Demand]
		if !ok {
			prog = buildProgram(task.Demand)
			progByDemand[task.Demand] = prog
		}
		s.strands = append(s.strands, strand{
			pipe:    int32(topo.PipeOf(ctx)),
			core:    int32(topo.CoreOf(ctx)),
			program: prog,
			group:   int32(task.Group),
			stage:   stageOf[task.Group],
		})
		stageOf[task.Group]++
	}
	for g, n := range stageOf {
		// Group numbers may be sparse; a group with no tasks at all is
		// fine (its GroupPPS stays 0), a partial pipeline is not.
		if n != 0 && n != 3 {
			return nil, fmt.Errorf("cycle: group %d has %d tasks, need exactly 3 (R, P, T)", g, n)
		}
	}
	s.groups = groups
	s.queues = make([][2]int, groups)
	s.txByGroup = make([]int32, groups)
	for g := range s.txByGroup {
		s.txByGroup[g] = -1
	}
	for i := range s.strands {
		if st := &s.strands[i]; st.stage == 2 {
			s.txByGroup[st.group] = int32(i)
		}
	}

	// Communication latency per consuming strand (P pays for R→P, T for
	// P→T), by placement distance.
	for _, l := range links {
		if l.A < 0 || l.A >= len(tasks) || l.B < 0 || l.B >= len(tasks) {
			return nil, fmt.Errorf("cycle: link %v references unknown task", l)
		}
		var lat float64
		if topo.ShareLevel(placement[l.A], placement[l.B]) == t2.InterCore {
			lat = machine.RemoteCommL2 + machine.RemoteCommXBar
		} else {
			lat = machine.LocalCommL1
		}
		s.strands[l.B].commLatency += int32(lat)
	}

	s.byPipe = make([][]int32, topo.Pipes())
	for i := range s.strands {
		p := s.strands[i].pipe
		s.byPipe[p] = append(s.byPipe[p], int32(i))
	}
	for p := range s.byPipe {
		if len(s.byPipe[p]) > 0 {
			s.occ = append(s.occ, int32(p))
		}
	}
	s.rrIndex = make([]int, topo.Pipes())
	return s, nil
}

// wakeEvent is one parked strand in the wake-time min-heap.
type wakeEvent struct {
	cycle int64
	idx   int32
}

// shortParkLimit splits parks into two regimes. A strand parked for more
// than this many cycles (serial regions, accumulated communication
// latency) leaves the per-cycle scan entirely: its pipe's awake count
// drops and the wake-time min-heap re-admits it at the right cycle, so a
// long park costs O(log strands) total instead of one poll per cycle. A
// short park (a miss chunk, a queue handoff) stays in the scan and costs
// one comparison per cycle, which is cheaper than heap churn at this
// length. The idle-jump does not depend on the split: when no strand
// issues machine-wide, the next wake is found by scanning all strands, so
// frozen stretches are skipped in one step either way.
const shortParkLimit = 64

// wakePush adds an event to the min-heap.
func wakePush(h *[]wakeEvent, e wakeEvent) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].cycle <= s[i].cycle {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// wakePop removes the earliest event. The caller checks len > 0.
func wakePop(h *[]wakeEvent) wakeEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s[l].cycle < s[small].cycle {
			small = l
		}
		if r < n && s[r].cycle < s[small].cycle {
			small = r
		}
		if small == i {
			break
		}
		s[small], s[i] = s[i], s[small]
		i = small
	}
	*h = s
	return top
}

// Run simulates until every pipeline instance has transmitted `packets`
// packets and returns throughput measured in simulated time.
//
// The loop is event-driven but cycle-for-cycle identical to runReference
// (the original polling loop, kept in reference.go): parked strands sit in
// a wake-time min-heap and per-pipe awake counts let idle pipes be
// skipped; a cycle in which no strand issues anywhere freezes queues,
// programs and round-robin cursors, so the clock jumps straight to the
// next wake event instead of replaying no-op cycles one by one.
func (s *sim) Run(packets int) (Result, error) {
	if packets < 1 {
		return Result{}, fmt.Errorf("cycle: need at least one packet")
	}
	topo := s.machine.Topo
	res := Result{
		IssueBusy: make([]int64, topo.Pipes()),
		LSUBusy:   make([]int64, topo.Cores),
		GroupPPS:  make([]float64, s.groups),
	}
	target := int64(packets)
	lsuTaken := make([]int64, topo.Cores) // cycle number when last used
	var cycle int64

	// O(1) completion tracking: remaining counts groups whose T strand has
	// not yet transmitted `target` packets (the old loop rescanned every
	// strand per cycle).
	remaining := 0
	for _, ti := range s.txByGroup {
		if ti >= 0 && s.strands[ti].packets < target {
			remaining++
		}
	}

	heap := make([]wakeEvent, 0, len(s.strands))
	awake := make([]int32, topo.Pipes()) // strands not long-parked, per pipe
	for i := range s.strands {
		st := &s.strands[i]
		if st.wakeCycle-cycle > shortParkLimit {
			wakePush(&heap, wakeEvent{st.wakeCycle, int32(i)})
		} else {
			awake[st.pipe]++
		}
	}

	for remaining > 0 {
		cycle++
		if s.cfg.MaxCycles > 0 && cycle > s.cfg.MaxCycles {
			return Result{}, fmt.Errorf("cycle: exceeded %d cycles", s.cfg.MaxCycles)
		}
		for len(heap) > 0 && heap[0].cycle <= cycle {
			e := wakePop(&heap)
			awake[s.strands[e.idx].pipe]++
		}
		anyIssued := false
		for _, pipe := range s.occ {
			if awake[pipe] == 0 {
				continue // every strand of this pipe is parked
			}
			idxs := s.byPipe[pipe]
			// Round-robin: try each strand starting after the last issuer.
			issued := false
			blocked := 0
			n := len(idxs)
			for k := 0; k < n && !issued; k++ {
				j := s.rrIndex[pipe] + k
				if j >= n {
					j -= n
				}
				si := idxs[j]
				st := &s.strands[si]
				if st.wakeCycle > cycle {
					continue // parked
				}
				if !s.canWork(st, target) {
					continue // blocked on queues or finished
				}
				o := st.program.ops[st.pc]
				switch o.class {
				case opIssue:
					st.pc++
				case opLSU:
					if lsuTaken[st.core] == cycle {
						blocked++ // port busy this cycle; try the next strand
						continue
					}
					lsuTaken[st.core] = cycle
					res.LSUBusy[st.core]++
					st.pc++
				case opMiss, opSerial:
					st.wakeCycle = cycle + int64(o.latency)
					st.pc++
				}
				issued = true
				res.IssueBusy[pipe]++
				if j++; j >= n {
					j = 0
				}
				s.rrIndex[pipe] = j
				if int(st.pc) >= len(st.program.ops) {
					if s.completePacket(st, cycle) && st.packets == target {
						remaining--
					}
				}
				if st.wakeCycle-cycle > shortParkLimit {
					// Long park (serial region, accumulated communication
					// latency): the strand leaves the per-cycle scan and the
					// heap re-admits it at its wake cycle. Short parks stay
					// in the scan — see shortParkLimit.
					awake[pipe]--
					wakePush(&heap, wakeEvent{st.wakeCycle, si})
				}
			}
			if issued {
				anyIssued = true
			} else {
				// Strands that wanted the LSU but lost arbitration. When no
				// strand issues the scan above visited every strand exactly
				// once, so it already counted them — the reference loop's
				// second pass re-evaluated the same predicates verbatim.
				res.LSUBlocked += int64(blocked)
			}
		}
		if !anyIssued {
			// Globally idle: no issue means no queue, program or cursor
			// change, so every cycle until the earliest wake replays this
			// one. Short-parked strands are not in the heap, so find that
			// wake by scanning every strand — once per idle stretch, not per
			// cycle — and jump the clock there in a single step.
			next := int64(math.MaxInt64)
			for i := range s.strands {
				if w := s.strands[i].wakeCycle; w > cycle && w < next {
					next = w
				}
			}
			if next != math.MaxInt64 && next > cycle+1 {
				if s.cfg.MaxCycles > 0 && next > s.cfg.MaxCycles+1 {
					// The polling loop would idle up to MaxCycles+1 and
					// abort before any strand wakes.
					return Result{}, fmt.Errorf("cycle: exceeded %d cycles", s.cfg.MaxCycles)
				}
				cycle = next - 1
			}
		}
	}

	res.Cycles = cycle
	seconds := float64(cycle) / s.machine.ClockHz
	for g, ti := range s.txByGroup {
		if ti < 0 {
			continue // group without tasks: GroupPPS stays 0
		}
		res.GroupPPS[g] = float64(s.strands[ti].packets) / seconds
		res.TotalPPS += res.GroupPPS[g]
	}
	return res, nil
}

// canWork reports whether the strand may make progress on its current
// packet: the upstream queue must have data (P, T) and the downstream queue
// must have room (R, P). A strand beginning a new packet pays its
// communication latency implicitly through the queue structure.
func (s *sim) canWork(st *strand, target int64) bool {
	q := &s.queues[st.group]
	switch st.stage {
	case 0: // R: source is the saturating NIU; needs room in R→P.
		if st.packets >= target+int64(s.cfg.QueueDepth) {
			return false // produced far enough ahead
		}
		return q[0] < s.cfg.QueueDepth
	case 1: // P: needs input and room in P→T.
		return q[0] > 0 && q[1] < s.cfg.QueueDepth
	default: // T: needs input.
		return q[1] > 0
	}
}

// completePacket finishes the strand's current packet: move a token across
// the queues and start the next packet (with communication latency for
// consumers). It reports whether the strand is a transmitter (stage 2),
// so Run can maintain its completion counter.
func (s *sim) completePacket(st *strand, cycle int64) bool {
	q := &s.queues[st.group]
	switch st.stage {
	case 0:
		q[0]++
	case 1:
		q[0]--
		q[1]++
	default:
		q[1]--
	}
	st.packets++
	st.pc = 0
	if st.stage > 0 && st.commLatency > 0 {
		st.wakeCycle = cycle + int64(st.commLatency)
	}
	return st.stage == 2
}
