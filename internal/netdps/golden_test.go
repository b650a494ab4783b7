package netdps

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/netgen"
)

// The measure golden suite pins the bits of every analytic measurement
// across commits. Identity-keyed disk caches (cas) store these values
// under Identity(), so a change that moves a single bit would silently
// serve stale measurements from every existing store. Each line of
// testdata/measure_golden.txt is one (benchmark, instances, assignment):
// MeasureAnalytic at noise 0.004 and 0, then Solve's Iterations, and the
// IEEE-754 bits of TotalRate and TotalPPS, with each per-task or
// per-group slice as its length and an FNV-1a hash of its bits.
// Regenerate it only when an output change is intended:
//
//	go test ./internal/netdps -run TestMeasureGolden -update

var updateMeasureGolden = flag.Bool("update", false, "rewrite testdata/measure_golden.txt from the current code")

const measureGoldenPath = "testdata/measure_golden.txt"

// goldenBenchmarks is every name apps.ByName accepts.
var goldenBenchmarks = []string{
	"Aho-Corasick", "IPFwd-L1", "IPFwd-Mem", "Packet-analyzer", "Stateful",
	"IPFwd-intadd", "IPFwd-intmul",
}

// hashBits is FNV-1a over the little-endian IEEE-754 bits of xs.
func hashBits(xs []float64) string {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= prime64
			b >>= 8
		}
	}
	return fmt.Sprintf("%d:%016x", len(xs), h)
}

// measureGoldenLines renders the corpus: every benchmark × {1, 4, 8}
// instances × 100 assignments drawn by assign.Random from a fixed seed.
func measureGoldenLines(t *testing.T) []string {
	var lines []string
	hex := func(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }
	for bi, name := range goldenBenchmarks {
		app, err := apps.ByName(name, netgen.DefaultProfile())
		if err != nil {
			t.Fatal(err)
		}
		for _, inst := range []int{1, 4, 8} {
			noisy := newTB(t, app, inst, noise(0.004))
			exact := newTB(t, app, inst, noise(0))
			tasks, links := noisy.Tasks()
			rng := rand.New(rand.NewSource(int64(1000*bi + inst)))
			for k := 0; k < 100; k++ {
				a, err := assign.Random(rng, noisy.Machine.Topo, noisy.TaskCount())
				if err != nil {
					t.Fatal(err)
				}
				m1, err := noisy.MeasureAnalytic(a)
				if err != nil {
					t.Fatal(err)
				}
				m0, err := exact.MeasureAnalytic(a)
				if err != nil {
					t.Fatal(err)
				}
				res, err := noisy.Machine.Solve(tasks, links, a.Ctx)
				if err != nil {
					t.Fatal(err)
				}
				lines = append(lines, fmt.Sprintf("%s/i=%d/k=%d %s %s %d %s %s %s %s %s",
					name, inst, k, hex(m1), hex(m0), res.Iterations,
					hex(res.TotalRate), hex(res.TotalPPS),
					hashBits(res.ServiceCycles), hashBits(res.GroupRate), hashBits(res.Slowdown)))
			}
		}
	}
	return lines
}

// TestMeasureGolden compares every measurement of the corpus with the
// committed golden file, bit for bit.
func TestMeasureGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64; on %s the compiler may fuse multiply-adds and move the last bit", runtime.GOARCH)
	}
	got := measureGoldenLines(t)
	if *updateMeasureGolden {
		var b strings.Builder
		b.WriteString("# Generated by: go test ./internal/netdps -run TestMeasureGolden -update\n")
		b.WriteString("# label measure@0.004 measure@0 iterations TotalRate TotalPPS ServiceCycles GroupRate Slowdown\n")
		for _, l := range got {
			b.WriteString(l + "\n")
		}
		if err := os.WriteFile(measureGoldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), measureGoldenPath)
		return
	}
	f, err := os.Open(measureGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d measure lines, golden file has %d", len(got), len(want))
	}
	mismatches := 0
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		mismatches++
		if mismatches <= 5 {
			t.Errorf("want %q\n got %q", want[i], got[i])
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d measure lines differ from %s", mismatches, len(got), measureGoldenPath)
	}
}
