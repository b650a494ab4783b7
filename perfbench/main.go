// Command perfbench is the repository's benchmark: it runs one named
// workload through the system's public entry points for a fixed time,
// checks the workload's outputs, and prints its metrics. Run it from the
// root of a checkout:
//
//	bash perfbench/run.sh --workload certify-local --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 the benchmark wraps its calls into
// every layer in spans and reports the per-layer metrics instead. The line
// before it is a fuller report: the machine fingerprint, every figure the
// workload produced, and the correctness checks it passed. The same report
// is saved under .bench_build/results/. README.md in this directory
// describes the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build"

// setupReps is how many times each workload sets up: set-up time is
// reported as the median, and the last set-up is the one measured.
const setupReps = 5

// options is what every workload receives.
type options struct {
	name    string // workload name
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // this run's private data directory
}

// result is everything a workload measured.
type result struct {
	setup       []float64 // seconds, one per set-up repetition
	wall        float64   // seconds the timed phase took
	unstolen    float64   // seconds of the timed phase the machine did not steal
	cpu         float64   // CPU seconds the process used in the timed phase
	draws       int       // draws committed in the timed phase
	drawsToCert int       // draws the certifying unit consumed
	campaigns   []float64 // seconds per finished campaign (or sample pass)
	submits     []float64 // ms per POST /campaigns
	queries     []float64 // ms per GET /query, from its scheduled send time
	lateness    []float64 // ms the open-loop generator sent late
	attempted   int
	failed      int
	// counts must repeat exactly between runs at one seed; see checkCounts.
	counts map[string]float64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	checks []string // correctness checks passed
}

func (r *result) passed(format string, args ...any) {
	r.checks = append(r.checks, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(ctx context.Context, o options) (*result, error)
}

var workloads = []workload{
	{"certify-local", runCertifyLocal},
	{"sample-cached", runSampleCached},
	{"service-fleet", runServiceFleet},
	{"fleet-parallel", runFleetParallel},
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metrics each kind of run prints. A --trace 0 run prints the end-to-end
// metrics, which every workload must produce; a --trace 1 run prints the
// per-layer metrics, 0 for a layer the workload does not exercise.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec() (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the result line: the last line of standard output, the
// one tools read.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: certify-local, sample-cached, service-fleet or fleet-parallel")
	seed := flag.Int64("seed", 1, "workload seed: every input of the run derives from it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase, in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(outDir, "data"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(filepath.Join(outDir, "data"), w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	o := options{
		name:    w.name,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		dir:     dir,
	}
	digest := sourceDigest()
	res, err := w.run(context.Background(), o)
	if err == nil {
		err = checkCounts(w.name, o.seed, digest, res.counts)
	}
	if err != nil {
		// A failed check fails the run: no result line is printed.
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, o.seed, err)
		return 1
	}

	line := resultLine{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	all := figures(res)
	defs := spec.EndToEnd
	if o.trace {
		defs = spec.PerLayer
	}
	for _, d := range defs {
		v := all[d.Name]
		if v == 0 && !o.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s produced no %s\n", w.name, d.Name)
			return 1
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}

	report := map[string]any{
		"workload":    w.name,
		"seed":        o.seed,
		"seconds":     *seconds,
		"trace":       o.trace,
		"fingerprint": fingerprint(digest),
		"figures":     all,
		"tail":        campaignTail(res),
		"counts":      res.counts,
		"checks":      res.checks,
		"result":      line,
	}
	rep, err := json.Marshal(report)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := saveReport(w.name, o, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving report:", err)
		return 1
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(rep))
	fmt.Println(string(out))
	return 0
}

// figures derives every named figure of a run. Figures a workload did
// not produce are absent.
func figures(r *result) map[string]float64 {
	f := map[string]float64{
		"setup_s":          median(r.setup),
		"wall_s":           r.wall,
		"draws_per_s":      float64(r.draws) / r.unstolen,
		"draws_per_s_wall": float64(r.draws) / r.wall,
		"cpu_us_per_draw":  r.cpu / float64(r.draws) * 1e6,
		"steal_frac":       1 - r.unstolen/r.wall,
		"draws_to_cert":    float64(r.drawsToCert),
		"error_ratio":      float64(r.failed) / float64(r.attempted),
		"peak_rss_mb":      peakRSSMB(),
	}
	if len(r.campaigns) > 0 {
		f["campaign_s_p50"] = median(r.campaigns)
		f["campaign_s_spread"] = spread(r.campaigns)
		if t, ok := tailOf(r.campaigns); ok {
			f["campaign_s_tail"] = t.Value
		}
	}
	if len(r.submits) > 0 {
		f["submit_ms_p50"] = median(r.submits)
	}
	if len(r.queries) > 0 {
		f["query_ms_p50"] = median(r.queries)
		f["query_ms_p99"] = percentile(r.queries, 99)
		f["query_late_ms_max"] = percentile(r.lateness, 100)
	}
	for k, v := range r.layers {
		f[k] = v
	}
	for k, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			f[k] = 0
		}
	}
	return f
}

// campaignTail reports the campaign-time tail with its percentile and
// sample count, or nil when there are too few campaigns for one.
func campaignTail(r *result) any {
	if t, ok := tailOf(r.campaigns); ok {
		return t
	}
	return nil
}

// peakRSSMB is the benchmark process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// fingerprint identifies the machine class and the code a result came
// from, so results from different machines are never compared unnoticed.
func fingerprint(digest string) map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_commit":    gitCommit(),
		"source_sha256": digest,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory when it has
// one; a checkout exported without history reports "unknown", and
// source_sha256 identifies the code instead.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, ok := strings.CutPrefix(ref, "ref: ")
	if !ok {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout in
// path order. Unreadable entries are skipped, so the walk never fails.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func saveReport(name string, o options, rep []byte) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, o.seed, trace))
	return os.WriteFile(path, append(rep, '\n'), 0o644)
}

// errCountChanged reports a deterministic count that differs from an
// earlier run at the same seed.
var errCountChanged = errors.New("deterministic count changed between runs at one seed")

// checkCounts compares a run's deterministic counts with those recorded
// by earlier runs of the same code at the same workload and seed, then
// records the union.
func checkCounts(name string, seed int64, digest string, counts map[string]float64) error {
	dir := filepath.Join(outDir, "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%.12s.json", name, seed, digest))
	known := map[string]float64{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &known); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	if err := compareCounts(known, counts); err != nil {
		return err
	}
	for k, v := range counts {
		known[k] = v
	}
	data, err := json.Marshal(known)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// compareCounts fails on the first count present in both maps with
// different values.
func compareCounts(known, now map[string]float64) error {
	keys := make([]string, 0, len(now))
	for k := range now {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if was, ok := known[k]; ok && was != now[k] {
			return fmt.Errorf("%w: %s was %v, now %v", errCountChanged, k, was, now[k])
		}
	}
	return nil
}
