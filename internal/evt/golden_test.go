package evt

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The golden suite pins the POT pipeline's output across commits. The
// stream differential suite compares two code paths of one build, so it
// cannot see a change that moves both paths' bits together; this file
// can. testdata/analyze_golden.txt holds one line per report: every
// float64 as its IEEE-754 bits in hex, every exceedance slice as its
// length and an FNV-1a hash of its bits. Regenerate it only when an
// output change is intended:
//
//	go test ./internal/evt -run TestAnalyzeGolden -update

var updateGolden = flag.Bool("update", false, "rewrite testdata/analyze_golden.txt from the current code")

const goldenPath = "testdata/analyze_golden.txt"

// goldenSample is one named input of the golden corpus.
type goldenSample struct {
	name string
	xs   []float64
}

// goldenCorpus is the fixed-seed sample set: GPD tails with ξ from −0.9
// to 0.3 at sizes 400 to 20,000 above a positive location, a tie-heavy
// quantized variant and a variant on a negative scale.
func goldenCorpus() []goldenSample {
	var out []goldenSample
	seed := int64(1)
	sample := func(g GPD, n int) []float64 {
		rng := rand.New(rand.NewSource(seed))
		seed++
		return g.Sample(rng, n)
	}
	for _, xi := range []float64{-0.9, -0.6, -0.3, -0.1, 0.1, 0.3} {
		for _, n := range []int{400, 400, 2000, 2000, 5000, 5000, 20000} {
			xs := sample(GPD{Xi: xi, Sigma: 5}, n)
			for i := range xs {
				xs[i] += 100
			}
			out = append(out, goldenSample{fmt.Sprintf("gpd/xi=%g/n=%d/seed=%d", xi, n, seed-1), xs})
		}
	}
	for _, n := range []int{2000, 20000} {
		xs := sample(GPD{Xi: -0.3, Sigma: 5}, n)
		for i := range xs {
			xs[i] = math.Round(xs[i]*2) / 2
		}
		out = append(out, goldenSample{fmt.Sprintf("quantized/n=%d", n), xs})
	}
	for _, n := range []int{1000, 20000} {
		xs := sample(GPD{Xi: -0.2, Sigma: 3}, n)
		for i := range xs {
			xs[i] -= 250
		}
		out = append(out, goldenSample{fmt.Sprintf("negative/n=%d", n), xs})
	}
	return out
}

// goldenStreams are the campaign-schedule refit streams: a first fit at
// 1,000 observations, then one every 100.
func goldenStreams() []goldenSample {
	rng := rand.New(rand.NewSource(501))
	gpd := GPD{Xi: -0.3, Sigma: 5}.Sample(rng, 10000)
	quantized := GPD{Xi: -0.4, Sigma: 4}.Sample(rng, 3000)
	for i := range quantized {
		quantized[i] = math.Round(quantized[i]*4) / 4
	}
	return []goldenSample{{"stream/gpd", gpd}, {"stream/quantized", quantized}}
}

var goldenRules = []struct {
	name string
	rule ThresholdRule
}{
	{"auto", RuleAuto},
	{"maxfraction", RuleMaxFraction},
	{"linearity", RuleLinearityScan},
}

// goldenRecord is one report's golden line and, for each token after
// the label, the report field it renders (none for an error line).
type goldenRecord struct {
	line  string
	paths []string
}

// goldenSelection is the threshold scan's pick and the GPD fit of its
// exceedances. It is recorded beside each report because a report that
// fails (an unbounded tail, say) carries neither.
type goldenSelection struct {
	Threshold Threshold
	Fit       Fit
	FitErr    string
}

// goldenRecords renders the corpus's reports and selections, and the
// stream refits, one record each.
func goldenRecords(t testing.TB) []goldenRecord {
	var recs []goldenRecord
	for _, s := range goldenCorpus() {
		for _, r := range goldenRules {
			topts := ThresholdOptions{Rule: r.rule}
			rep, err := Analyze(s.xs, POTOptions{Threshold: topts})
			recs = append(recs, goldenRecordOf(s.name+"/"+r.name, rep, err))
			var sel goldenSelection
			sel.Threshold, err = SelectThreshold(s.xs, topts)
			if err == nil {
				var fitErr error
				if sel.Fit, fitErr = FitGPD(sel.Threshold.Exceedances); fitErr != nil {
					sel.FitErr = fitErr.Error()
				}
			}
			recs = append(recs, goldenRecordOf(s.name+"/"+r.name+"/select", sel, err))
		}
	}
	for _, s := range goldenStreams() {
		est := NewStreamEstimator(StreamOptions{})
		for i, x := range s.xs {
			if err := est.Observe(x); err != nil {
				t.Fatal(err)
			}
			if n := i + 1; n >= 1000 && n%100 == 0 {
				rep, err := est.Refit()
				recs = append(recs, goldenRecordOf(fmt.Sprintf("%s/n=%d", s.name, n), rep, err))
			}
		}
	}
	return recs
}

// goldenRecordOf renders "label token..." with v's fields in declaration
// order, or "label error <message>".
func goldenRecordOf(label string, v any, err error) goldenRecord {
	if err != nil {
		return goldenRecord{line: label + " error " + strconv.Quote(err.Error())}
	}
	toks := []string{label}
	var paths []string
	emit := func(path, tok string) {
		paths = append(paths, path)
		toks = append(toks, tok)
	}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			emit(path, fmt.Sprintf("%016x", math.Float64bits(v.Float())))
		case reflect.Int:
			emit(path, strconv.FormatInt(v.Int(), 10))
		case reflect.Bool:
			emit(path, strconv.FormatBool(v.Bool()))
		case reflect.String:
			emit(path, strconv.Quote(v.String()))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Float64 {
				h := uint64(fnvOffset64)
				for i := 0; i < v.Len(); i++ {
					h = foldHash(h, v.Index(i).Float())
				}
				emit(path, fmt.Sprintf("%d:%016x", v.Len(), h))
				return
			}
			emit(path+".len", strconv.Itoa(v.Len()))
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		default:
			panic(fmt.Sprintf("goldenFields: unhandled kind %v at %s", v.Kind(), path))
		}
	}
	walk(reflect.TypeOf(v).Name(), reflect.ValueOf(v))
	return goldenRecord{line: strings.Join(toks, " "), paths: paths}
}

// TestAnalyzeGolden compares every report of the corpus with the
// committed golden file, float by float on the IEEE-754 bits.
func TestAnalyzeGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded on amd64, where math.Log is assembly; its results on %s may differ in the last bit", runtime.GOARCH)
	}
	got := goldenRecords(t)
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# Generated by: go test ./internal/evt -run TestAnalyzeGolden -update\n")
		for _, r := range got {
			b.WriteString(r.line + "\n")
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(got), goldenPath)
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d report lines, golden file has %d", len(got), len(want))
	}
	mismatches := 0
	for i := range got {
		if got[i].line == want[i] {
			continue
		}
		mismatches++
		if mismatches <= 5 {
			t.Errorf("%s", describeGoldenDiff(want[i], got[i]))
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d report lines differ from %s", mismatches, len(got), goldenPath)
	}
}

// describeGoldenDiff names the first differing field of a golden line,
// decoding float bits so the message shows the values too.
func describeGoldenDiff(want string, got goldenRecord) string {
	w, g := strings.Fields(want), strings.Fields(got.line)
	if len(w) != len(g) || len(got.paths) != len(g)-1 {
		return fmt.Sprintf("want %q\n got %q", want, got.line)
	}
	for i := 1; i < len(w); i++ {
		if w[i] == g[i] {
			continue
		}
		path := got.paths[i-1]
		wb, errW := strconv.ParseUint(w[i], 16, 64)
		gb, errG := strconv.ParseUint(g[i], 16, 64)
		if errW == nil && errG == nil && len(w[i]) == 16 {
			return fmt.Sprintf("%s: %s: want %v (%s), got %v (%s)", w[0], path, math.Float64frombits(wb), w[i], math.Float64frombits(gb), g[i])
		}
		return fmt.Sprintf("%s: %s: want %s, got %s", w[0], path, w[i], g[i])
	}
	return fmt.Sprintf("want %q\n got %q", want, got.line)
}
