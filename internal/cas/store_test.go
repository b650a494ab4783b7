package cas

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := []string{"tb|a\x1f8x2x4\x1fK1", "tb|a\x1f8x2x4\x1fK2", "tb|b\x1f8x2x4\x1fK1"}
	for i, k := range keys {
		if err := s.Put(k, 1e6+float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate Put is a no-op, not a second record.
	before := s.Bytes()
	if err := s.Put(keys[0], 1e6); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != before {
		t.Fatalf("duplicate Put grew the segment: %d -> %d bytes", before, s.Bytes())
	}
	for i, k := range keys {
		got, ok := s.Get(k)
		if !ok || got != 1e6+float64(i) {
			t.Fatalf("Get(%q) = %v, %v; want %v, true", k, got, ok, 1e6+float64(i))
		}
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) reported a hit")
	}
	if s.Len() != len(keys) {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(keys))
	}
}

// TestStoreReopenRecovers proves persistence: a second Open on the same
// directory (a new process, a resumed campaign, a sibling fleet member)
// rebuilds the identical index from the segment alone.
func TestStoreReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("class-%03d", i)
		v := float64(i) * 1.5
		want[k] = v
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("reopened Len() = %d, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := s2.Get(k); !ok || got != v {
			t.Fatalf("reopened Get(%q) = %v, %v; want %v, true", k, got, ok, v)
		}
	}
}

// TestStoreExactBitPatterns: performance values round-trip bit-for-bit —
// the disk tier must be as invisible to journal bytes as the LRU is.
func TestStoreExactBitPatterns(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0, math.Copysign(0, -1), 1e-308, math.MaxFloat64, 1234567.89012345, math.Nextafter(1e6, 2e6)}
	for i, v := range vals {
		if err := s.Put(fmt.Sprintf("k%d", i), v); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i, v := range vals {
		got, ok := s2.Get(fmt.Sprintf("k%d", i))
		if !ok || math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("value %d: got bits %x, want %x", i, math.Float64bits(got), math.Float64bits(v))
		}
	}
}

func segPath(dir string) string { return filepath.Join(dir, segmentName) }

// corrupt appends or rewrites raw bytes to simulate a writer killed
// mid-append.
func corrupt(t *testing.T, dir string, mutate func([]byte) []byte) {
	t.Helper()
	data, err := os.ReadFile(segPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir), mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreCrashConsistency is the kill-mid-write gate: every way an
// append can be torn — length prefix cut, key cut, perf cut, checksum
// half-written, trailing garbage — must be detected at reopen, the torn
// tail rejected from the index and truncated away, and the store must
// accept new appends that survive a further reopen.
func TestStoreCrashConsistency(t *testing.T) {
	mkRecord := func(key string, perf float64) []byte {
		rec := make([]byte, 8+len(key)+8)
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
		copy(rec[8:], key)
		binary.LittleEndian.PutUint64(rec[8+len(key):], math.Float64bits(perf))
		binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[8:]))
		return rec
	}
	tears := []struct {
		name string
		tail func() []byte
	}{
		{"cut-length-prefix", func() []byte { return mkRecord("torn-key", 9e9)[:3] }},
		{"cut-mid-key", func() []byte { return mkRecord("torn-key", 9e9)[:12] }},
		{"cut-mid-perf", func() []byte { r := mkRecord("torn-key", 9e9); return r[:len(r)-3] }},
		{"bad-crc", func() []byte {
			r := mkRecord("torn-key", 9e9)
			r[5] ^= 0xff
			return r
		}},
		{"zero-length", func() []byte { return make([]byte, 8) }},
		{"garbage", func() []byte { return []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02} }},
		{"huge-length", func() []byte {
			r := make([]byte, 8)
			binary.LittleEndian.PutUint32(r[0:4], 1<<30)
			return r
		}},
	}
	for _, tear := range tears {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("good-1", 1.5); err != nil {
				t.Fatal(err)
			}
			if err := s.Put("good-2", 2.5); err != nil {
				t.Fatal(err)
			}
			clean := s.Bytes()
			s.Close()
			corrupt(t, dir, func(b []byte) []byte { return append(b, tear.tail()...) })

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after torn tail: %v", err)
			}
			if s2.Len() != 2 {
				t.Fatalf("index holds %d records after torn tail, want the 2 intact ones", s2.Len())
			}
			if _, ok := s2.Get("torn-key"); ok {
				t.Fatal("torn record leaked into the index")
			}
			if s2.Bytes() != clean {
				t.Fatalf("validated size %d, want %d (torn tail not rejected)", s2.Bytes(), clean)
			}
			if fi, err := os.Stat(segPath(dir)); err != nil || fi.Size() != clean {
				t.Fatalf("segment size %d after reopen, want torn tail truncated to %d", fi.Size(), clean)
			}
			// The log must stay appendable and durable after the repair.
			if err := s2.Put("good-3", 3.5); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			s3, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			for k, v := range map[string]float64{"good-1": 1.5, "good-2": 2.5, "good-3": 3.5} {
				if got, ok := s3.Get(k); !ok || got != v {
					t.Fatalf("after repair+append+reopen, Get(%q) = %v, %v; want %v", k, got, ok, v)
				}
			}
		})
	}
}

// TestStorePutBatch: a batch writes one record per new key, skipping keys
// already stored and keys repeated in the batch (the first value wins),
// and refuses mismatched or invalid input without writing anything.
func TestStorePutBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("old", 1); err != nil {
		t.Fatal(err)
	}
	before := s.Bytes()
	if err := s.PutBatch([]string{"old", "a", "bb", "a"}, []float64{9, 2, 3, 9}); err != nil {
		t.Fatal(err)
	}
	if grew, want := s.Bytes()-before, int64(2*recordOverhead+len("a")+len("bb")); grew != want {
		t.Fatalf("batch grew the segment by %d bytes, want %d (one record each for a and bb)", grew, want)
	}
	for k, v := range map[string]float64{"old": 1, "a": 2, "bb": 3} {
		if got, ok := s.Get(k); !ok || got != v {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, ok, v)
		}
	}
	before = s.Bytes()
	if err := s.PutBatch([]string{"c"}, nil); err == nil {
		t.Fatal("PutBatch accepted 1 key for 0 values")
	}
	if err := s.PutBatch([]string{"c", ""}, []float64{4, 5}); err == nil {
		t.Fatal("PutBatch accepted an empty key")
	}
	if err := s.PutBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, ok := s.Get("c"); ok || s.Bytes() != before {
		t.Fatalf("a refused batch wrote: Get(c) %v, %d -> %d bytes", ok, before, s.Bytes())
	}
	s.Close()
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reopened store holds %d keys, want 3", re.Len())
	}
}

// TestStoreTornGroupCommit cuts a multi-record PutBatch append at every
// byte offset, as a crash mid-write can: reopening must serve exactly the
// whole records before the cut, truncate the rest, and accept further
// appends that survive another reopen.
func TestStoreTornGroupCommit(t *testing.T) {
	src := t.TempDir()
	s, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("before", 0.5); err != nil {
		t.Fatal(err)
	}
	clean := s.Bytes()
	keys := []string{"k", "key-two", "a-rather-longer-third-key", "k4"}
	perfs := []float64{1, 2, 3, 4}
	if err := s.PutBatch(keys, perfs); err != nil {
		t.Fatal(err)
	}
	s.Close()
	full, err := os.ReadFile(segPath(src))
	if err != nil {
		t.Fatal(err)
	}
	// ends[i] is where the batch's record i ends.
	ends := make([]int64, len(keys))
	end := clean
	for i, k := range keys {
		end += int64(recordOverhead + len(k))
		ends[i] = end
	}
	if end != int64(len(full)) {
		t.Fatalf("segment is %d bytes, want %d", len(full), end)
	}

	for cut := clean; cut < int64(len(full)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		whole, valid := 0, clean
		for whole < len(keys) && ends[whole] <= cut {
			valid = ends[whole]
			whole++
		}
		if s.Len() != 1+whole || s.Bytes() != valid {
			t.Fatalf("cut %d: %d keys over %d bytes, want %d over %d", cut, s.Len(), s.Bytes(), 1+whole, valid)
		}
		for i, k := range keys {
			got, ok := s.Get(k)
			if ok != (i < whole) || (ok && got != perfs[i]) {
				t.Fatalf("cut %d: Get(%q) = %v, %v with %d whole records", cut, k, got, ok, whole)
			}
		}
		if fi, err := os.Stat(segPath(dir)); err != nil || fi.Size() != valid {
			t.Fatalf("cut %d: segment not truncated to %d bytes (%v)", cut, valid, err)
		}
		if err := s.PutBatch([]string{"after", keys[len(keys)-1]}, []float64{5, perfs[len(keys)-1]}); err != nil {
			t.Fatalf("cut %d: PutBatch after the repair: %v", cut, err)
		}
		s.Close()
		re, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := 2 + whole // "before", the whole records and "after"
		if whole < len(keys) {
			want++ // the last key, written again
		}
		if v, ok := re.Get("after"); !ok || v != 5 || re.Len() != want {
			t.Fatalf("cut %d: after the repair and a reopen: Get(after) = %v, %v, %d keys, want %d", cut, v, ok, re.Len(), want)
		}
		re.Close()
	}
}

// TestStorePutBatchCrossProcess: a second handle on the directory sees
// every record of a peer's PutBatch after one Get miss, and a batch
// skips the keys a peer appended first.
func TestStorePutBatchCrossProcess(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	keys := []string{"p1", "p2", "p3", "p4"}
	if err := a.PutBatch(keys, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("p1"); !ok {
		t.Fatal("peer missed the batch's first record")
	}
	if b.Len() != len(keys) || b.Bytes() != a.Bytes() {
		t.Fatalf("after one Get miss the peer indexed %d keys over %d bytes, want %d over %d",
			b.Len(), b.Bytes(), len(keys), a.Bytes())
	}

	if err := b.Put("q1", 10); err != nil {
		t.Fatal(err)
	}
	before := b.Bytes()
	if err := a.PutBatch([]string{"q1", "q2"}, []float64{10, 20}); err != nil {
		t.Fatal(err)
	}
	if grew, want := a.Bytes()-before, int64(recordOverhead+len("q2")); grew != want {
		t.Fatalf("batch grew the segment by %d bytes, want %d (q1 was the peer's)", grew, want)
	}
	if got, ok := b.Get("q2"); !ok || got != 20 {
		t.Fatalf("peer Get(q2) = %v, %v", got, ok)
	}
}

// TestStoreRejectsForeignFile: a directory holding a non-cas file must be
// refused, not misparsed into a poisoned cache.
func TestStoreRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir), []byte("this is not a cas segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a foreign segment file")
	}
}

// TestStoreCrossProcessSharing simulates two fleet members on one host:
// two independent Store handles on one directory. A Put through one is
// visible to the other's next Get miss via the catch-up scan — no reopen,
// no signal, no shared memory.
func TestStoreCrossProcessSharing(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Put("from-a", 11); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.Get("from-a"); !ok || got != 11 {
		t.Fatalf("peer Get(from-a) = %v, %v; want 11, true", got, ok)
	}
	if err := b.Put("from-b", 22); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("from-b"); !ok || got != 22 {
		t.Fatalf("peer Get(from-b) = %v, %v; want 22, true", got, ok)
	}
	// Same key written by both sides: one record, one value.
	if err := a.Put("shared", 33); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("shared", 33); err != nil {
		t.Fatal(err)
	}
	if a.Bytes() != b.Bytes() {
		t.Fatalf("validated sizes diverged: a=%d b=%d", a.Bytes(), b.Bytes())
	}
}

// TestStoreConcurrentPutGet hammers one handle from many goroutines —
// the in-process concurrency contract, run under -race in CI.
func TestStoreConcurrentPutGet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := fmt.Sprintf("class-%d", i) // all workers contend on the same keys
				if err := s.Put(k, float64(i)); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(k); !ok || got != float64(i) {
					t.Errorf("Get(%q) = %v, %v", k, got, ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != perWorker {
		t.Fatalf("Len() = %d, want %d", s.Len(), perWorker)
	}
}

// TestStoreWarmGetAllocFree pins the acceptance criterion: a warm disk
// hit is a map read — zero allocations on the lookup.
func TestStoreWarmGetAllocFree(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("warm-key", 42); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := s.Get("warm-key"); !ok {
			t.Fatal("warm key missing")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Get allocates %.1f objects per lookup, want 0", allocs)
	}
}

// TestStoreDeleteDirInvalidates documents the operational contract from
// the README: removing the directory is the (only) invalidation story.
func TestStoreDeleteDirInvalidates(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("stale", 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("stale"); ok {
		t.Fatal("deleted directory still serves old measurements")
	}
	if s2.Len() != 0 {
		t.Fatalf("fresh store has %d entries", s2.Len())
	}
}

func BenchmarkStoreWarmGet(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("warm-key", 42); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("warm-key"); !ok {
			b.Fatal("missing")
		}
	}
}

func BenchmarkStorePut(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("class-%d", i), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePutBatch times group commits of 1, 8 and 64 new records,
// one fsync each, beside BenchmarkStorePut's one record per fsync.
func BenchmarkStorePutBatch(b *testing.B) {
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			keys := make([]string, n)
			perfs := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range keys {
					keys[j] = fmt.Sprintf("class-%d-%d", i, j)
					perfs[j] = float64(j)
				}
				if err := s.PutBatch(keys, perfs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
