package table

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSchema is the shape of the campaigns table in miniature.
// pending reports the buffered, not-yet-committed row count.
func pending(t *Table) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

func testSchema() Schema {
	return Schema{
		Name: "campaigns",
		Columns: []Column{
			{Name: "id", Type: String, Indexed: true},
			{Name: "benchmark", Type: String, Indexed: true},
			{Name: "samples", Type: Int},
			{Name: "upb", Type: Float},
			{Name: "satisfied", Type: Bool, Indexed: true},
		},
	}
}

func TestCreateInsertReopen(t *testing.T) {
	dir := t.TempDir()
	tb, err := Create(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert("c1", "IPFwd", 120, 1.25, true); err != nil {
		t.Fatal(err)
	}
	if err := tb.Insert("c2", "Hash", 200, 2.5, false); err != nil {
		t.Fatal(err)
	}
	if err := tb.Close(); err != nil { // Close commits the buffer
		t.Fatal(err)
	}

	tb2, err := Open(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tb2.Close()
	if tb2.Len() != 2 {
		t.Fatalf("reopened table has %d rows, want 2", tb2.Len())
	}
	r := tb2.Get(0)
	if r[0] != "c1" || r[1] != "IPFwd" || r[2] != int64(120) || r[3] != 1.25 || r[4] != true {
		t.Fatalf("row 0 round-trip = %v", r)
	}
	ids, err := tb2.Lookup("benchmark", "Hash")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("Lookup(benchmark, Hash) = %v, want [1]", ids)
	}
}

// TestBufferedCommit pins the csvdb discipline: inserted rows are
// invisible — in memory and on disk — until Commit, and Commit lands the
// whole batch in one append.
func TestBufferedCommit(t *testing.T) {
	dir := t.TempDir()
	tb, err := Create(dir, testSchema(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	for i := 0; i < 3; i++ {
		if err := tb.Insert("c", "b", i, 0.5, false); err != nil {
			t.Fatal(err)
		}
	}
	if tb.Len() != 0 || pending(tb) != 3 {
		t.Fatalf("before commit: len=%d pending=%d, want 0/3", tb.Len(), pending(tb))
	}
	if data, err := os.ReadFile(filepath.Join(dir, rowsName)); err != nil || len(data) != 0 {
		t.Fatalf("rows file before commit: %d bytes, err=%v", len(data), err)
	}
	if err := tb.Commit(); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 || pending(tb) != 0 {
		t.Fatalf("after commit: len=%d pending=%d, want 3/0", tb.Len(), pending(tb))
	}
	data, err := os.ReadFile(filepath.Join(dir, rowsName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 3 {
		t.Fatalf("rows file has %d lines, want 3", n)
	}
}

// TestAutoCommitAtBufferSize: the buffer flushes itself when it fills.
func TestAutoCommitAtBufferSize(t *testing.T) {
	tb, err := Create(t.TempDir(), testSchema(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.Insert("a", "b", 1, 1.0, true)
	if tb.Len() != 0 {
		t.Fatalf("len after 1 insert = %d, want 0", tb.Len())
	}
	tb.Insert("c", "d", 2, 2.0, false)
	if tb.Len() != 2 || pending(tb) != 0 {
		t.Fatalf("len=%d pending=%d after hitting bufSize, want 2/0", tb.Len(), pending(tb))
	}
}

// TestOpenTruncatesTornTail: a crash mid-append leaves a partial final
// line; Open must drop exactly that line and keep every complete row.
func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	tb, err := Create(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tb.Insert("c1", "IPFwd", 1, 1.0, true)
	tb.Insert("c2", "Hash", 2, 2.0, false)
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rowsName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`["c3","torn",3`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tb2, err := Open(dir, Schema{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb2.Len() != 2 {
		t.Fatalf("table with torn tail opened with %d rows, want 2", tb2.Len())
	}
	if err := tb2.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(clean) {
		t.Fatalf("torn tail not truncated back to the clean prefix:\n%q\nwant\n%q", after, clean)
	}
}

func TestOpenRejectsCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	tb, err := Create(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tb.Insert("c1", "b", 1, 1.0, true)
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rowsName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A complete but malformed line, followed by a valid one: corruption
	// that is NOT a torn tail must refuse to open.
	f.WriteString("{not json}\n")
	f.WriteString("[\"c2\",\"b\",2,2.0,false]\n")
	f.Close()
	if _, err := Open(dir, Schema{}, 0); err == nil {
		t.Fatal("Open accepted a corrupt mid-file line")
	}
}

func TestExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	tb, err := Create(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Schema{}, 0); !errors.Is(err, ErrTableBusy) {
		t.Fatalf("second open: err = %v, want ErrTableBusy", err)
	}
	if err := tb.Close(); err != nil {
		t.Fatal(err)
	}
	tb2, err := Open(dir, Schema{}, 0)
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	tb2.Close()
}

func TestSchemaMismatchAndMissing(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, testSchema(), 0); !errors.Is(err, ErrTableMissing) {
		t.Fatalf("open of empty dir: err = %v, want ErrTableMissing", err)
	}
	tb, err := Create(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tb.Close()
	if _, err := Create(dir, testSchema(), 0); !errors.Is(err, ErrTableExists) {
		t.Fatalf("second create: err = %v, want ErrTableExists", err)
	}
	other := testSchema()
	other.Columns[2].Type = Float
	if _, err := Open(dir, other, 0); !errors.Is(err, ErrSchemaMismatch) {
		t.Fatalf("open with wrong schema: err = %v, want ErrSchemaMismatch", err)
	}
	// OpenOrCreate with the right schema reopens; with none existing it creates.
	tb2, err := OpenOrCreate(dir, testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tb2.Close()
}

func TestInsertTypeChecking(t *testing.T) {
	tb, err := Create(t.TempDir(), testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if err := tb.Insert("c", "b", "not-an-int", 1.0, true); err == nil {
		t.Fatal("string into int column accepted")
	}
	if err := tb.Insert("c", "b", 1, 1.0); err == nil {
		t.Fatal("short row accepted")
	}
	nan := 0.0
	nan = nan / nan
	if err := tb.Insert("c", "b", 1, nan, true); err == nil {
		t.Fatal("NaN accepted")
	}
	// Go ints coerce into both Int and Float columns.
	if err := tb.Insert("c", "b", 7, 3, true); err != nil {
		t.Fatalf("int literals refused: %v", err)
	}
}

func TestLookupErrors(t *testing.T) {
	tb, err := Create(t.TempDir(), testSchema(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := tb.Lookup("nope", "x"); err == nil {
		t.Fatal("lookup on unknown column succeeded")
	}
	if _, err := tb.Lookup("samples", 1); err == nil {
		t.Fatal("lookup on unindexed column succeeded")
	}
}
