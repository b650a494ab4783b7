package campaign

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"optassign/internal/obs"
	"optassign/internal/raceflag"
)

// checkAppendEntry fails t unless appendEntry writes json.Marshal's bytes
// for the success entry (seq, ctx, perf).
func checkAppendEntry(t *testing.T, seq int, ctx []int, perf float64) {
	t.Helper()
	want, err := json.Marshal(JournalEntry{Seq: seq, Ctx: ctx, Perf: perf})
	if err != nil {
		t.Fatal(err)
	}
	if got := appendEntry(nil, seq, ctx, perf); string(got) != string(want) {
		t.Fatalf("appendEntry(%d, %v, %v [%#x]) = %s, json.Marshal = %s",
			seq, ctx, perf, math.Float64bits(perf), got, want)
	}
}

// TestAppendEntryMatchesMarshal pins the success-line encoder to
// json.Marshal on the floats where encoding/json's format switches or
// rounds, on random bit patterns, and on nil, empty and wide ctx slices.
func TestAppendEntryMatchesMarshal(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		1e20, 1e21, -1e21, 999999999999999999999, 1e-9, 1.5e-10, 1e100, 1e-100,
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		0.1, 1.0 / 3, 123456789.125, 2.7e9, 3.0e9 + 0.1,
	}
	ctxs := [][]int{nil, {}, {0}, {63, 0, 17}, {-1, math.MaxInt64, math.MinInt64}}
	for _, ctx := range ctxs {
		for _, f := range floats {
			checkAppendEntry(t, 1, ctx, f)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		checkAppendEntry(t, rng.Intn(1<<20), []int{rng.Intn(64), rng.Intn(64)}, f)
	}
	for _, seq := range []int{0, -1, math.MaxInt64, math.MinInt64} {
		checkAppendEntry(t, seq, []int{3}, 2)
	}
}

// FuzzAppendEntry checks appendEntry against json.Marshal over sequence
// numbers, contexts (one per byte) and perf bit patterns.
func FuzzAppendEntry(f *testing.F) {
	f.Add(1, []byte{0, 9, 63}, math.Float64bits(2.5e9))
	f.Add(-7, []byte{}, math.Float64bits(1e-7))
	f.Add(math.MaxInt64, []byte{255}, uint64(1))
	f.Fuzz(func(t *testing.T, seq int, ctxBytes []byte, bits uint64) {
		perf := math.Float64frombits(bits)
		if math.IsNaN(perf) || math.IsInf(perf, 0) {
			t.Skip("Append rejects non-finite perf before encoding")
		}
		ctx := make([]int, len(ctxBytes))
		for i, b := range ctxBytes {
			ctx[i] = int(int8(b))
		}
		checkAppendEntry(t, seq, ctx, perf)
	})
}

// TestJournalAppendAllocates nothing: a success line is encoded into the
// journal's reused buffer and written straight to the file.
func TestJournalAppendAllocates(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	j, err := CreateJournal(filepath.Join(t.TempDir(), "run.journal"), journalHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Instrument(NewJournalMetrics(obs.NewRegistry()))
	a := drawN(t, 9, 1)[0]
	if n := testing.AllocsPerRun(200, func() {
		if err := j.Append(a, 2.5e9); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Journal.Append allocates %v times per call, want 0", n)
	}
}

// TestJournalSyncBesideAppendAndClose runs Append and Close against
// concurrent Syncs (under -race in CI): appends never wait out an fsync's
// lock, Close waits for the syncs in flight and never closes the file
// under one, and the journal loads with every acknowledged line in
// sequence.
func TestJournalSyncBesideAppendAndClose(t *testing.T) {
	for round := 0; round < 5; round++ {
		path := filepath.Join(t.TempDir(), "run.journal")
		j, err := CreateJournal(path, journalHeader())
		if err != nil {
			t.Fatal(err)
		}
		jm := NewJournalMetrics(obs.NewRegistry())
		j.Instrument(jm)
		as := drawN(t, int64(round), 200)

		var wg sync.WaitGroup
		var mu sync.Mutex
		syncs, synced, appended := 0, 0, 0
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					err := j.Sync()
					if err != nil && !errors.Is(err, os.ErrClosed) {
						t.Errorf("Sync: %v", err)
					}
					mu.Lock()
					syncs++
					if err == nil {
						synced++
					}
					mu.Unlock()
				}
			}()
		}
		half := make(chan struct{})
		var halfOnce sync.Once
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer halfOnce.Do(func() { close(half) })
			for i, a := range as {
				if i == len(as)/4 {
					halfOnce.Do(func() { close(half) })
				}
				err := j.Append(a, 1e9)
				if errors.Is(err, errJournalClosed) {
					return
				}
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				mu.Lock()
				appended++
				mu.Unlock()
			}
		}()
		// A sync admitted before Close counts itself before Close returns:
		// Close waits for it rather than closing the file under it.
		var countedAtClose float64
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-half
			if err := j.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			countedAtClose = jm.Syncs.Value()
		}()
		wg.Wait()
		if err := j.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
		if float64(synced) > countedAtClose {
			t.Fatalf("round %d: %d syncs succeeded, only %v had finished when Close returned", round, synced, countedAtClose)
		}

		if got := jm.Syncs.Value(); got != float64(syncs) {
			t.Fatalf("round %d: %v syncs counted, %d made", round, got, syncs)
		}
		st, err := LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Truncated || st.Draws != appended || len(st.Results) != appended {
			t.Fatalf("round %d: journal holds %d draws (torn %v), %d appends acknowledged",
				round, st.Draws, st.Truncated, appended)
		}
		for i, r := range st.Results {
			if !slices.Equal(r.Assignment.Ctx, as[i].Ctx) {
				t.Fatalf("round %d: entry %d is %v, appended %v", round, i+1, r.Assignment.Ctx, as[i].Ctx)
			}
		}
	}
}
