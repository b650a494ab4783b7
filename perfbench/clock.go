package main

// This file measures the timed phase's processor use: the process's CPU
// time, and how much of the wall time the hypervisor stole from the
// guest, which the end-to-end times leave out.

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks returns the machine's cumulative steal ticks from
// /proc/stat, and the ticks the guest wanted to run: busy plus steal.
// Steal is time the hypervisor gave this guest's runnable processors to
// other guests; idle and I/O-wait ticks are time the guest did not want.
func stealTicks() (steal, wanted int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseInt(f, 10, 64)
		switch i {
		case 3, 4:
		case 7:
			steal = v
			wanted += v
		default:
			wanted += v
		}
	}
	return steal, wanted
}

// stealClock measures an interval's wall time and the share of the
// processor time the guest wanted that the hypervisor stole over it.
type stealClock struct {
	at            time.Time
	steal, wanted int64
}

func startSteal() stealClock {
	s, w := stealTicks()
	return stealClock{at: time.Now(), steal: s, wanted: w}
}

// share returns the stolen share of wanted processor time since the
// start.
func (c stealClock) share() float64 {
	s, w := stealTicks()
	if w <= c.wanted {
		return 0
	}
	return float64(s-c.steal) / float64(w-c.wanted)
}

// unstolen returns the seconds since the start that the machine was not
// stolen: wall time scaled by the unstolen share. On a dedicated machine
// it is the wall time.
func (c stealClock) unstolen() float64 {
	return time.Since(c.at).Seconds() * (1 - c.share())
}
