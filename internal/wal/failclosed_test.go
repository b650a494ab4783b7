package wal_test

// The three durable writers over a fault-injecting file: each fails
// closed after a failed write or fsync, and reopening recovers every
// record the file holds, once.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"syscall"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/campaign"
	"optassign/internal/cas"
	"optassign/internal/core"
	"optassign/internal/netdps"
	"optassign/internal/obs"
	"optassign/internal/t2"
	"optassign/internal/table"
	"optassign/internal/wal"
)

// TestTableRetryAfterFailedCommit: a commit that fails on a short write
// (a full disk) or on fsync is retried, and then the table is closed with
// one more row buffered. Neither the retry nor Close may write: after a
// short write they would append whole rows behind a torn one, which Open
// refuses as mid-file corruption; after a failed fsync they would land
// the same rows twice. Reopening must succeed with every committed row
// once.
func TestTableRetryAfterFailedCommit(t *testing.T) {
	schema := table.Schema{Name: "rows", Columns: []table.Column{
		{Name: "id", Type: table.Int, Indexed: true},
		{Name: "note", Type: table.String},
	}}
	insert := func(tb *table.Table, ids ...int) {
		t.Helper()
		for _, id := range ids {
			if err := tb.Insert(id, "a note long enough that half a batch tears a row"); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name    string
		ft      wal.Faults
		cause   error
		landed  []int // ids on disk after reopening, each once
		missing []int
	}{
		// Half of the failed commit's three equal-length rows reached the
		// file: row 4 whole, row 5 torn.
		{"short-write", wal.Faults{ShortWrite: 2}, syscall.ENOSPC, []int{1, 2, 3, 4}, []int{5, 6, 7}},
		// The failed commit's rows reached the file before its fsync
		// failed; they were never acknowledged, and must not land twice.
		{"fsync-eio", wal.Faults{FailSync: 2}, syscall.EIO, []int{1, 2, 3, 4, 5, 6}, []int{7}},
	} {
		t.Run(c.name, func(t *testing.T) {
			wal.InjectFaults(t, "rows.tab", c.ft)
			dir := t.TempDir()
			tb, err := table.Create(dir, schema, 100)
			if err != nil {
				t.Fatal(err)
			}
			insert(tb, 1, 2, 3)
			if err := tb.Commit(); err != nil {
				t.Fatal(err)
			}
			insert(tb, 4, 5, 6)
			if err := tb.Commit(); !errors.Is(err, wal.ErrFailed) || !errors.Is(err, c.cause) {
				t.Fatalf("failing commit: err = %v, want wal.ErrFailed wrapping %v", err, c.cause)
			}
			if err := tb.Commit(); !errors.Is(err, wal.ErrFailed) {
				t.Fatalf("retried commit: err = %v, want wal.ErrFailed", err)
			}
			insert(tb, 7)
			if err := tb.Close(); !errors.Is(err, wal.ErrFailed) {
				t.Fatalf("Close with buffered rows: err = %v, want wal.ErrFailed", err)
			}
			if tb.Len() != 3 {
				t.Fatalf("%d rows visible, want the 3 committed", tb.Len())
			}

			re, err := table.Open(dir, schema, 100)
			if err != nil {
				t.Fatalf("reopen after the failure: %v", err)
			}
			defer re.Close()
			if re.Len() != len(c.landed) {
				t.Fatalf("reopened table holds %d rows, want %d", re.Len(), len(c.landed))
			}
			for _, id := range c.landed {
				if ids, err := re.Lookup("id", id); err != nil || len(ids) != 1 {
					t.Fatalf("id %d appears %d times (err %v), want once", id, len(ids), err)
				}
			}
			for _, id := range c.missing {
				if ids, _ := re.Lookup("id", id); len(ids) != 0 {
					t.Fatalf("id %d appears %d times, want none", id, len(ids))
				}
			}
			insert(re, 8)
			if err := re.Commit(); err != nil {
				t.Fatalf("commit after reopening: %v", err)
			}
		})
	}
}

// TestJournalFailsClosedAfterFailedSync: once a journal sync fails, no
// line lands after it — Append and AppendFailure return wal.ErrFailed —
// and ResumeJournal continues from the lines before it.
func TestJournalFailsClosedAfterFailedSync(t *testing.T) {
	wal.InjectFaults(t, ".journal", wal.Faults{FailSync: 1})
	h := campaign.JournalHeader{Topo: t2.Topology{Cores: 2, PipesPerCore: 2, ContextsPerPipe: 2}, Tasks: 3, Seed: 1}
	as, err := assign.Sample(rand.New(rand.NewSource(1)), h.Topo, h.Tasks, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := campaign.CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range as[:2] {
		if err := j.Append(a, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); !errors.Is(err, wal.ErrFailed) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("failing sync: err = %v, want wal.ErrFailed wrapping EIO", err)
	}
	if err := j.Append(as[2], 3); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Append after a failed sync: err = %v, want wal.ErrFailed", err)
	}
	if err := j.AppendFailure(as[2], errors.New("quarantined")); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("AppendFailure after a failed sync: err = %v, want wal.ErrFailed", err)
	}
	if err := j.Sync(); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("second Sync: err = %v, want wal.ErrFailed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := campaign.LoadJournal(path); err != nil || st.Draws != 2 || st.Truncated {
		t.Fatalf("journal after the failure: %+v, err %v; want the 2 draws before it", st, err)
	}

	j2, st, err := campaign.ResumeJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if st.Draws != 2 {
		t.Fatalf("resumed %d draws, want 2", st.Draws)
	}
	if err := j2.Append(as[2], 3); err != nil {
		t.Fatalf("Append after resuming: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := campaign.LoadJournal(path); err != nil || st.Draws != 3 {
		t.Fatalf("journal after resuming: %+v, err %v; want 3 draws", st, err)
	}
}

// TestStoreFailsClosedAfterShortWrite: a Put cut short fails the store
// closed for writing while Get keeps serving, and reopening drops the
// torn record and keeps the ones before it.
func TestStoreFailsClosedAfterShortWrite(t *testing.T) {
	// Write 1 is a new segment's header, write 2 the first Put.
	wal.InjectFaults(t, "measurements.cas", wal.Faults{ShortWrite: 3})
	dir := t.TempDir()
	s, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k1", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", 2); !errors.Is(err, wal.ErrFailed) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn Put: err = %v, want wal.ErrFailed wrapping ENOSPC", err)
	}
	if err := s.Put("k3", 3); !errors.Is(err, wal.ErrFailed) {
		t.Fatalf("Put after the failure: err = %v, want wal.ErrFailed", err)
	}
	if v, ok := s.Get("k1"); !ok || v != 1 {
		t.Fatalf("Get(k1) = %v, %v after the failure", v, ok)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := cas.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if _, ok := re.Get("k2"); ok || re.Len() != 1 {
		t.Fatalf("reopened store: %d keys, k2 present %v; want only k1", re.Len(), ok)
	}
	if err := re.Put("k2", 2); err != nil {
		t.Fatalf("Put after reopening: %v", err)
	}
}

// TestBatchFailsClosedAfterFailedGroupSync: the fsync of a chunk's group
// commit fails. The store fails closed for writing, the cache counts one
// disk error for the whole chunk, and the chunk still returns the values
// it measured, which L1 keeps serving.
func TestBatchFailsClosedAfterFailedGroupSync(t *testing.T) {
	// Sync 1 is a new segment's header, sync 2 the chunk's group commit.
	wal.InjectFaults(t, "measurements.cas", wal.Faults{FailSync: 2})
	dir := t.TempDir()
	store, err := cas.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := netdps.NewTestbed(apps.NewIPFwd(apps.IPFwdL1), 2)
	if err != nil {
		t.Fatal(err)
	}
	as, err := assign.Sample(rand.New(rand.NewSource(1)), tb.Machine.Topo, tb.TaskCount(), 16)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewCacheMetrics(obs.NewRegistry())
	cache := core.NewCache(0, m)
	cache.AttachStore(store)
	r := core.NewCachedContextRunner(core.AsContextRunner(tb), cache, tb.Identity())
	check := func(perfs []float64, errs []error) {
		t.Helper()
		for i, a := range as {
			want, err := tb.MeasureAnalytic(a)
			if err != nil || errs[i] != nil {
				t.Fatalf("draw %d: %v / %v", i, errs[i], err)
			}
			if math.Float64bits(perfs[i]) != math.Float64bits(want) {
				t.Fatalf("draw %d: %v, uncached %v", i, perfs[i], want)
			}
		}
	}
	check(r.MeasureBatchContext(context.Background(), as))
	if m.Misses.Value() < 2 {
		t.Fatalf("the chunk measured %v classes, want several in one group commit", m.Misses.Value())
	}
	if m.DiskErrors.Value() != 1 {
		t.Fatalf("DiskErrors = %v, want 1 for the chunk's failed group commit", m.DiskErrors.Value())
	}
	if err := store.Put("later", 1); !errors.Is(err, wal.ErrFailed) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put after the failed group sync: err = %v, want wal.ErrFailed wrapping EIO", err)
	}
	misses := m.Misses.Value()
	check(r.MeasureBatchContext(context.Background(), as))
	if m.Misses.Value() != misses {
		t.Fatalf("L1 lost the chunk's values: %v new misses", m.Misses.Value()-misses)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := cas.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if err := re.Put("later", 1); err != nil {
		t.Fatalf("Put after reopening: %v", err)
	}
}
