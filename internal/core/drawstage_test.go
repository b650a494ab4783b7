package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/search"
	"optassign/internal/t2"
)

// countingSource is a math/rand source that counts the variates drawn
// from it, so a test can see the draw stage touch the RNG.
type countingSource struct {
	src   rand.Source64
	calls atomic.Int64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64    { s.calls.Add(1); return s.src.Int63() }
func (s *countingSource) Uint64() uint64  { s.calls.Add(1); return s.src.Uint64() }
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// sampleEntries are the CollectSample* entry points on each measurer the
// draw stage feeds: a serial runner, one- and three-worker pools, and the
// one-worker cached batch path whose keys the stage renders. unit is the
// number of draws the stage streams at a time.
var sampleEntries = []struct {
	name string
	unit int
	run  func(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, src *batchSource, commit CommitFunc) ([]SampleResult, []Skipped, error)
}{
	{"context", sampleUnit(1, 1), func(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, src *batchSource, _ CommitFunc) ([]SampleResult, []Skipped, error) {
		return CollectSampleContext(ctx, rng, topo, tasks, n, src)
	}},
	{"workers1", sampleUnit(1, 1), func(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, src *batchSource, commit CommitFunc) ([]SampleResult, []Skipped, error) {
		return CollectSampleParallel(ctx, rng, topo, tasks, n, onePool(src), commit)
	}},
	{"workers3", sampleUnit(1, 3), func(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, src *batchSource, commit CommitFunc) ([]SampleResult, []Skipped, error) {
		pool, err := NewReplicatedPool(src, 3)
		if err != nil {
			return nil, nil, err
		}
		return CollectSampleParallel(ctx, rng, topo, tasks, n, pool, commit)
	}},
	{"batched", sampleUnit(48, 1), func(ctx context.Context, rng *rand.Rand, topo t2.Topology, tasks, n int, src *batchSource, commit CommitFunc) ([]SampleResult, []Skipped, error) {
		// An L1 far smaller than the class count: chunks mix hits and
		// misses, and a key clobbered in the ring would serve a wrong
		// class.
		r := NewCachedContextRunner(src, NewCache(8, nil), "tb")
		return CollectSampleBatched(ctx, rng, topo, tasks, n, r, BatchOptions{Size: 48}, commit)
	}},
}

// TestDrawStageSampleMatchesSerial: a streamed sample equals
// assign.Sample's n draws measured one by one in order: the same
// results, quarantines and commits, and the RNG left at the same place,
// at sizes below, at and across many units, on both generator paths.
func TestDrawStageSampleMatchesSerial(t *testing.T) {
	topo := batchTopo() // 8 contexts
	quarantineClass := ""
	for _, tasks := range []int{3, 5} { // Random, then RandomPermutation
		for _, n := range []int{0, 1, 700, 6000} {
			rng := rand.New(rand.NewSource(int64(31 * n)))
			as, err := assign.Sample(rng, topo, tasks, n)
			if err != nil {
				t.Fatal(err)
			}
			if n > 0 {
				quarantineClass = as[0].CanonicalKey()
			}
			fail := func(a assign.Assignment) error {
				if a.CanonicalKey() == quarantineClass {
					return fmt.Errorf("%w: flaky context", ErrQuarantined)
				}
				return nil
			}
			type commitRec struct {
				a    assign.Assignment
				perf float64
				err  error
			}
			var want []commitRec
			var wantRes []SampleResult
			var wantSkip []Skipped
			ref := &batchSource{fail: fail}
			for _, a := range as {
				perf, err := ref.measure(a)
				if err != nil {
					want = append(want, commitRec{a, 0, err})
					wantSkip = append(wantSkip, Skipped{Assignment: a, Err: err})
					continue
				}
				want = append(want, commitRec{a, perf, nil})
				wantRes = append(wantRes, SampleResult{Assignment: a, Perf: perf})
			}
			wantNext := rng.Int63()
			for _, e := range sampleEntries {
				t.Run(fmt.Sprintf("tasks%d-n%d-%s", tasks, n, e.name), func(t *testing.T) {
					var got []commitRec
					commit := func(a assign.Assignment, perf float64, err error) error {
						got = append(got, commitRec{a, perf, err})
						return nil
					}
					rng := rand.New(rand.NewSource(int64(31 * n)))
					res, skip, err := e.run(context.Background(), rng, topo, tasks, n, &batchSource{fail: fail}, commit)
					if err != nil {
						t.Fatal(err)
					}
					if len(res) != len(wantRes) || (len(res) > 0 && !reflect.DeepEqual(res, wantRes)) {
						t.Fatalf("%d results differ from assign.Sample measured serially (%d)", len(res), len(wantRes))
					}
					if !reflect.DeepEqual(skip, wantSkip) {
						t.Fatalf("skipped %d, want %d", len(skip), len(wantSkip))
					}
					if e.name != "context" && (len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want))) {
						t.Fatalf("%d commits differ from the serial order (%d)", len(got), len(want))
					}
					if rng.Int63() != wantNext {
						t.Fatal("the sample left the RNG elsewhere than assign.Sample")
					}
				})
			}
		}
	}
}

// TestDrawStageSampleStopsOnError: a fatal measurement error or a cancel
// mid-sample returns with the draw stage stopped: the RNG is not touched
// after the return, every draw before the failure is measured, and the
// stage has drawn at most streamDepth+1 units past the unit that failed.
func TestDrawStageSampleStopsOnError(t *testing.T) {
	const n, failAt = 20000, 700
	topo, tasks := t2.UltraSPARCT2(), 6
	// pos[k] is the number of variates k uniform draws take from the RNG.
	pos := make([]int64, n+1)
	ref := newCountingSource(3)
	refRNG, refHist := rand.New(ref), search.NewHistory(topo, tasks)
	for k := 1; k <= n; k++ {
		if _, err := (search.Uniform{}).Next(refRNG, refHist); err != nil {
			t.Fatal(err)
		}
		pos[k] = ref.calls.Load()
	}
	errDied := errors.New("testbed died")
	for _, mode := range []string{"fatal", "cancel"} {
		for _, e := range sampleEntries {
			t.Run(mode+"-"+e.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var measured atomic.Int64
				src := &batchSource{fail: func(assign.Assignment) error {
					if measured.Add(1) != failAt {
						return nil
					}
					if mode == "cancel" {
						cancel()
						return nil
					}
					return errDied
				}}
				cs := newCountingSource(3)
				// Six tasks on a T2 have about 1,500 classes, so the
				// batched path's tiny L1 misses most draws and measures
				// past failAt.
				res, skip, err := e.run(ctx, rand.New(cs), topo, tasks, n, src, nil)
				want := map[string]error{"fatal": errDied, "cancel": context.Canceled}[mode]
				if !errors.Is(err, want) {
					t.Fatalf("err = %v, want %v", err, want)
				}
				// The batched path measures its chunk's classes at once and
				// the pool's workers race past the failure, so only a floor
				// holds for them.
				if got := len(res) + len(skip); got < failAt-1 || got >= n {
					t.Fatalf("%d draws returned, want at least the %d before the failure and fewer than %d", got, failAt-1, n)
				}
				calls := cs.calls.Load()
				time.Sleep(2 * time.Millisecond)
				if got := cs.calls.Load(); got != calls {
					t.Fatalf("the RNG was drawn from %d times after the return", got-calls)
				}
				// Draw len(res)+len(skip) failed: its unit was measured,
				// and up to streamDepth units waited behind it while one
				// more was drawn.
				limit := min(n, ((len(res)+len(skip))/e.unit+streamDepth+2)*e.unit)
				if calls > pos[limit] {
					drawn := sort.Search(n+1, func(k int) bool { return pos[k] >= calls })
					t.Fatalf("the stage drew %d draws, more than the %d that end %d units past the failing one", drawn, limit, streamDepth+1)
				}
			})
		}
	}
}

// gatedUniform is search.Uniform whose call number at of Next signals
// reached and then waits for gate to close.
type gatedUniform struct {
	search.Uniform
	at      int64
	calls   atomic.Int64
	reached chan struct{}
	gate    chan struct{}
}

func (g *gatedUniform) Next(rng *rand.Rand, h *search.History) (search.Draw, error) {
	if g.calls.Add(1) == g.at {
		close(g.reached)
		<-g.gate
	}
	return g.Uniform.Next(rng, h)
}

// TestDrawStageStreamStopsAtUnit: once stop is closed, a stream finishes
// the unit it is drawing and draws no other, though its channel has room
// and its consumer drains it. Stop is closed in the middle of the second
// unit, many times over, since a stream that went on would do so only on
// some of its selects.
func TestDrawStageStreamStopsAtUnit(t *testing.T) {
	const unit = 10
	for trial := 0; trial < 50; trial++ {
		g := &gatedUniform{at: unit + unit/2, reached: make(chan struct{}), gate: make(chan struct{})}
		stage := &drawStage{strategy: g, rng: rand.New(rand.NewSource(int64(trial))), hist: search.NewHistory(batchTopo(), 3)}
		stop := make(chan struct{})
		units := stage.stream(100*unit, unit, stop)
		if r := <-units; len(r.batch) != unit || r.err != nil {
			t.Fatalf("first unit: %d draws, err %v", len(r.batch), r.err)
		}
		<-g.reached
		close(stop)
		close(g.gate)
		for range units {
		}
		if got := g.calls.Load(); got != 2*unit {
			t.Fatalf("trial %d: %d Next calls after stopping in the second unit, want %d", trial, got, 2*unit)
		}
	}
}

// TestDrawStageKeysMatchAppendKey: the keys the draw stage renders ahead
// of the probe are appendKey's bytes, draw for draw, whole and sliced
// into chunks, including keys too long for the probe's stack buffer; a
// round's keys survive the rendering of the round after it.
func TestDrawStageKeysMatchAppendKey(t *testing.T) {
	for _, sh := range []struct {
		topo  t2.Topology
		tasks int
	}{
		{batchTopo(), 3},
		{t2.UltraSPARCT2(), 6},
		{t2.Topology{Cores: 16, PipesPerCore: 2, ContextsPerPipe: 4}, 128}, // keys longer than keyBytes
	} {
		r := NewCachedContextRunner(&batchSource{}, NewCache(0, nil), "tb")
		stage := &drawStage{strategy: search.Uniform{}, rng: rand.New(rand.NewSource(5)), hist: search.NewHistory(sh.topo, sh.tasks), keyer: r, keys: make([]classKeys, 2)}
		check := func(d drawnRound) {
			t.Helper()
			for i, a := range d.batch {
				if want := r.appendKey(nil, a); !bytes.Equal(d.keys.at(i), want) {
					t.Fatalf("%d tasks: key %d = %q, appendKey %q", sh.tasks, i, d.keys.at(i), want)
				}
			}
			for lo := 0; lo < len(d.batch); lo += 7 {
				hi := min(lo+7, len(d.batch))
				c := d.keys.slice(lo, hi)
				for i := lo; i < hi; i++ {
					if !bytes.Equal(c.at(i-lo), d.keys.at(i)) {
						t.Fatalf("%d tasks: chunk at %d, key %d differs from the round's", sh.tasks, lo, i)
					}
				}
			}
		}
		prev := stage.draw(40)
		check(prev)
		longest := len(keyLongest(prev))
		for _, add := range []int{3, 90, 1, 64} {
			d := stage.draw(add)
			check(prev)
			check(d)
			longest = max(longest, len(keyLongest(d)))
			prev = d
		}
		if sh.tasks == 128 && longest <= keyBytes {
			t.Fatalf("no 128-task key outgrows the %d-byte stack buffer; the long-key case tests nothing", keyBytes)
		}
	}
}

// keyLongest returns d's longest rendered key.
func keyLongest(d drawnRound) []byte {
	var k []byte
	for i := range d.batch {
		if b := d.keys.at(i); len(b) > len(k) {
			k = b
		}
	}
	return k
}

// TestDrawStageKeyRunner: the draw stage renders keys for exactly the one
// worker that resolves chunks through a cache on the batch path.
func TestDrawStageKeyRunner(t *testing.T) {
	cached := NewCachedContextRunner(&batchSource{}, NewCache(0, nil), "tb")
	three, err := NewReplicatedPool(cached, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pool *PoolRunner
		opts BatchOptions
		want *CachedRunner
	}{
		{"cached-batch", onePool(cached), BatchOptions{Size: 8}, cached},
		{"unchunked", onePool(cached), BatchOptions{}, nil},
		{"three-workers", three, BatchOptions{Size: 8}, nil},
		{"uncached", onePool(NewCachedContextRunner(&batchSource{}, nil, "tb")), BatchOptions{Size: 8}, nil},
		{"no-batch-path", onePool(NewCachedContextRunner(&countingRunner{}, NewCache(0, nil), "tb")), BatchOptions{Size: 8}, nil},
		{"bare-source", onePool(&batchSource{}), BatchOptions{Size: 8}, nil},
	}
	for _, c := range cases {
		if got := c.pool.keyRunner(c.opts); got != c.want {
			t.Errorf("%s: keyRunner = %p, want %p", c.name, got, c.want)
		}
	}
}
