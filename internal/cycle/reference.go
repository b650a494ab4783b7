package cycle

import "fmt"

// runReference is the original cycle-by-cycle polling loop of sim.Run,
// transcribed onto the value-typed strand storage. Every cycle it rescans
// completion (the old done() closure), polls every occupied pipe and skips
// parked strands one by one, and the final PPS rollup is the original
// O(groups × strands) nested scan. It exists purely as the executable
// specification for the differential tests: Run must reproduce its Result
// and errors exactly. Not used by any production path.
func (s *sim) runReference(packets int) (Result, error) {
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

	done := func() bool {
		for i := range s.strands {
			if st := &s.strands[i]; st.stage == 2 && st.packets < target {
				return false
			}
		}
		return true
	}

	for !done() {
		cycle++
		if s.cfg.MaxCycles > 0 && cycle > s.cfg.MaxCycles {
			return Result{}, fmt.Errorf("cycle: exceeded %d cycles", s.cfg.MaxCycles)
		}
		for pipe := range s.byPipe {
			idxs := s.byPipe[pipe]
			if len(idxs) == 0 {
				continue
			}
			// Round-robin: try each strand starting after the last issuer.
			issued := false
			for k := 0; k < len(idxs) && !issued; k++ {
				st := &s.strands[idxs[(s.rrIndex[pipe]+k)%len(idxs)]]
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
						continue // port busy this cycle; try the next strand
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
				s.rrIndex[pipe] = (s.rrIndex[pipe] + k + 1) % len(idxs)
				if int(st.pc) >= len(st.program.ops) {
					s.completePacket(st, cycle)
				}
			}
			if !issued {
				// Count strands that wanted the LSU but lost arbitration.
				for _, si := range idxs {
					st := &s.strands[si]
					if st.wakeCycle <= cycle && s.canWork(st, target) &&
						st.program.ops[st.pc].class == opLSU && lsuTaken[st.core] == cycle {
						res.LSUBlocked++
					}
				}
			}
		}
	}

	res.Cycles = cycle
	seconds := float64(cycle) / s.machine.ClockHz
	for g := 0; g < s.groups; g++ {
		for i := range s.strands {
			if st := &s.strands[i]; int(st.group) == g && st.stage == 2 {
				res.GroupPPS[g] = float64(st.packets) / seconds
			}
		}
		res.TotalPPS += res.GroupPPS[g]
	}
	return res, nil
}
