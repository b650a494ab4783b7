package wal_test

// The cas store's syncer over a segment whose fsyncs the test holds open
// (Faults.Hold): a record is served only once its fsync lands, a failed
// fsync takes back every record it covered, batches appended while one
// fsync is held share the next one, and Close waits for the syncer.

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"optassign/internal/cas"
	"optassign/internal/wal"
)

// openHeld opens a cas store whose fsyncs wait for the test, failing the
// failSync'th of them (0: none). The segment is created, and its header
// synced, before the hold applies. The cleanup closes the store and
// releases whatever fsyncs a failed test left held.
func openHeld(t *testing.T, failSync int) (*cas.Store, chan struct{}) {
	t.Helper()
	dir := t.TempDir()
	s, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	wal.InjectFaults(t, "measurements.cas", wal.Faults{FailSync: failSync, Hold: hold})
	if s, err = cas.Open(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		for {
			select {
			case <-hold:
			case <-closed:
				return
			}
		}
	})
	return s, hold
}

// waitParked waits until some goroutine's stack holds every one of
// funcs, which is how a test knows that goroutine is parked there.
func waitParked(t *testing.T, funcs ...string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if len(stacksWith(buf, funcs...)) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine parked in %q", funcs)
		}
		time.Sleep(time.Millisecond)
	}
}

// stacksWith returns the stacks of the goroutines whose stack holds every
// one of funcs, rendered into buf.
func stacksWith(buf []byte, funcs ...string) []string {
	var out []string
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		all := true
		for _, f := range funcs {
			all = all && strings.Contains(g, f)
		}
		if all {
			out = append(out, g)
		}
	}
	return out
}

// served counts the keys s serves. Get waits for a key's fsync, so call
// it only once no fsync of keys is held.
func served(s *cas.Store, keys []string) int {
	n := 0
	for _, k := range keys {
		if _, ok := s.Get(k); ok {
			n++
		}
	}
	return n
}

const (
	heldFsync = "wal.(*faultFile).Sync"
	condWait  = "sync.(*Cond).Wait"
)

// TestStoreGetWaitsForHeldSync: appended records stay out of the store
// while their fsync is held, a Get of one of their keys parks until that
// fsync lands and then serves it, and the fsync commits the whole batch.
func TestStoreGetWaitsForHeldSync(t *testing.T) {
	s, hold := openHeld(t, 0)
	keys := []string{"k1", "k2", "k3"}
	if err := s.PutBatch(keys, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	waitParked(t, heldFsync)
	if n := s.Len(); n != 0 {
		t.Fatalf("not synced: Len() = %d, want 0", n)
	}

	type result struct {
		perf float64
		ok   bool
	}
	got := make(chan result, 1)
	go func() {
		perf, ok := s.Get("k2")
		got <- result{perf, ok}
	}()
	waitParked(t, "cas.(*Store).Get", condWait)
	select {
	case r := <-got:
		t.Fatalf("Get(k2) = %v, %v while its fsync was held", r.perf, r.ok)
	default:
	}

	<-hold
	if r := <-got; !r.ok || r.perf != 2 {
		t.Fatalf("Get(k2) = %v, %v once its fsync landed, want 2, true", r.perf, r.ok)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, m := s.Len(), served(s, keys); n != 3 || m != 3 {
		t.Fatalf("synced: Len() = %d, %d keys served; want 3 and 3", n, m)
	}
}

// TestStoreFailedSyncHidesItsKeys: when a held fsync fails, neither its
// records nor those appended beside it, whose fsync the failed file
// refuses, ever reach Get or Len; Sync reports the failure once, and the
// store fails closed for writing.
func TestStoreFailedSyncHidesItsKeys(t *testing.T) {
	s, hold := openHeld(t, 1)
	keys := []string{"a", "b", "c"}
	if err := s.PutBatch(keys[:2], []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	waitParked(t, heldFsync)
	if err := s.PutBatch(keys[2:], []float64{3}); err != nil {
		t.Fatalf("PutBatch beside a held fsync: %v", err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("not synced: Len() = %d, want 0", n)
	}

	<-hold
	if err := s.Sync(); !errors.Is(err, wal.ErrFailed) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after the failed fsync: err = %v, want wal.ErrFailed wrapping EIO", err)
	}
	if n, m := s.Len(), served(s, keys); n != 0 || m != 0 {
		t.Fatalf("after the failed fsync: Len() = %d, %d keys served; want none", n, m)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("second Sync: %v, want nil: the failure was reported once", err)
	}
	if err := s.PutBatch([]string{"d"}, []float64{4}); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("PutBatch after the failed fsync: err = %v, want wal.ErrFailed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v, want nil: Sync reported the failure", err)
	}
}

// TestStoreSyncsCoalesce: k batches appended while one fsync is held
// return without waiting and share a single further fsync.
func TestStoreSyncsCoalesce(t *testing.T) {
	const k = 8
	s, hold := openHeld(t, 0)
	if err := s.PutBatch([]string{"first"}, []float64{0}); err != nil {
		t.Fatal(err)
	}
	waitParked(t, heldFsync)
	keys := []string{"first"}
	for i := 1; i <= k; i++ {
		key := "beside-" + strconv.Itoa(i)
		keys = append(keys, key)
		if err := s.PutBatch([]string{key}, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	synced := make(chan error, 1)
	go func() { synced <- s.Sync() }()
	fsyncs := 0
	for done := false; !done; {
		select {
		case <-hold:
			fsyncs++
		case err := <-synced:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		}
	}
	if fsyncs > 2 {
		t.Fatalf("%d batches took %d fsyncs, want at most 2: the held one and one for the %d beside it", k+1, fsyncs, k)
	}
	if n := s.Len(); n != k+1 {
		t.Fatalf("Len() = %d, want %d", n, k+1)
	}
	if m := served(s, keys); m != k+1 {
		t.Fatalf("%d keys served, want %d", m, k+1)
	}
}

// TestStoreCloseWaitsForSyncer: Close parks while an fsync is held,
// returns once it lands, with the fsync's failure if no Sync reported it,
// and leaves no syncer goroutine behind.
func TestStoreCloseWaitsForSyncer(t *testing.T) {
	for _, c := range []struct {
		name     string
		failSync int
	}{{"ok", 0}, {"fsync-eio", 1}} {
		t.Run(c.name, func(t *testing.T) {
			s, hold := openHeld(t, c.failSync)
			if err := s.PutBatch([]string{"k"}, []float64{1}); err != nil {
				t.Fatal(err)
			}
			waitParked(t, heldFsync)
			closed := make(chan error, 1)
			go func() { closed <- s.Close() }()
			waitParked(t, "cas.(*Store).Close", condWait)
			select {
			case err := <-closed:
				t.Fatalf("Close returned %v while an fsync was held", err)
			default:
			}

			<-hold
			err := <-closed
			switch {
			case c.failSync == 0 && err != nil:
				t.Fatalf("Close: %v", err)
			case c.failSync != 0 && (!errors.Is(err, wal.ErrFailed) || !errors.Is(err, syscall.EIO)):
				t.Fatalf("Close after an unreported failed fsync: err = %v, want wal.ErrFailed wrapping EIO", err)
			}
			buf := make([]byte, 1<<20)
			for deadline := time.Now().Add(10 * time.Second); ; {
				left := stacksWith(buf, "cas.(*Store).syncer")
				if len(left) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("a syncer outlived Close:\n%s", left[0])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
