// Package table is an append-only, indexed, queryable table store — the
// result side of campaign-as-a-service. A finished campaign's journal is
// the raw evidence (every draw, byte-exact, replayable); the table holds
// the distilled row a user actually asks about — benchmark, testbed,
// samples, best, ÛPB, gap, satisfied — so "all campaigns on testbed X
// where gap < 2%" answers from an index over thousands of campaigns
// without opening a single journal file.
//
// Layout: a directory holding schema.json (the typed schema, written once
// at create) and rows.tab (JSON-lines, one array of column values per
// line, append-only). Rows buffer in memory until Commit appends them in
// one write and fsyncs, through a wal.File: Open cuts the torn final line
// a crash mid-append leaves, and a failed append or fsync fails the table
// closed until it is reopened. Committed rows are never rewritten, so
// yesterday's query results stay reproducible.
//
// Concurrency: one process owns a table at a time (the open handle holds
// an exclusive flock on rows.tab; a second opener gets ErrTableBusy), and
// the handle is safe for concurrent use within that process. Equality
// lookups on columns declared Indexed are served by in-memory hash
// indexes rebuilt at Open; everything else is a predicate scan over the
// in-memory rows.
package table

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"optassign/internal/wal"
)

// FormatVersion identifies the on-disk layout.
const FormatVersion = 1

const (
	schemaName = "schema.json"
	rowsName   = "rows.tab"
)

// Type is a column's value type.
type Type uint8

const (
	String Type = iota
	Int
	Float
	Bool
)

var typeNames = [...]string{"string", "int", "float", "bool"}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// MarshalJSON encodes the type by name so schema.json is self-describing.
func (t Type) MarshalJSON() ([]byte, error) {
	if int(t) >= len(typeNames) {
		return nil, fmt.Errorf("table: unknown column type %d", uint8(t))
	}
	return json.Marshal(typeNames[t])
}

// UnmarshalJSON decodes a type name.
func (t *Type) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for i, n := range typeNames {
		if n == s {
			*t = Type(i)
			return nil
		}
	}
	return fmt.Errorf("table: unknown column type %q", s)
}

// Column is one typed column. Indexed columns get an in-memory hash
// index over their values at Open, serving equality predicates without a
// scan.
type Column struct {
	Name    string `json:"name"`
	Type    Type   `json:"type"`
	Indexed bool   `json:"indexed,omitempty"`
}

// Schema is a table's ordered column set.
type Schema struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
}

// Validate checks the schema is usable: a name, at least one column, no
// duplicate or empty column names.
func (s Schema) Validate() error {
	if s.Name == "" {
		return errors.New("table: schema has no name")
	}
	if len(s.Columns) == 0 {
		return errors.New("table: schema has no columns")
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return errors.New("table: column with empty name")
		}
		if seen[c.Name] {
			return fmt.Errorf("table: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
		if int(c.Type) >= len(typeNames) {
			return fmt.Errorf("table: column %q has unknown type %d", c.Name, uint8(c.Type))
		}
	}
	return nil
}

// Col returns the position and definition of the named column.
func (s Schema) Col(name string) (int, Column, bool) {
	for i, c := range s.Columns {
		if c.Name == name {
			return i, c, true
		}
	}
	return -1, Column{}, false
}

// equal reports structural schema identity — Open refuses a directory
// whose persisted schema differs from the one the caller expects.
func (s Schema) equal(o Schema) bool {
	if s.Name != o.Name || len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// Row is one record: values in schema column order, normalized to
// string / int64 / float64 / bool.
type Row []any

// Typed errors for the conditions callers branch on.
var (
	// ErrTableExists reports a Create against a directory that already
	// holds a table.
	ErrTableExists = errors.New("table: table already exists")
	// ErrTableMissing reports an Open against a directory with no table.
	ErrTableMissing = errors.New("table: no table in directory")
	// ErrTableBusy reports that another process holds the table's
	// exclusive lock. It wraps wal.ErrLocked.
	ErrTableBusy = fmt.Errorf("table: table is in use by another process: %w", wal.ErrLocked)
	// ErrSchemaMismatch reports an Open whose expected schema differs
	// from the persisted one.
	ErrSchemaMismatch = errors.New("table: schema does not match the stored table")
)

// Table is an open table store. Safe for concurrent use; exactly one
// process may hold it open.
type Table struct {
	mu      sync.Mutex
	schema  Schema
	f       *wal.File // rows.tab, holds the exclusive flock
	rows    []Row
	buf     []Row
	bufSize int
	index   map[string]map[string][]int // column -> encoded value -> row ids
}

// persistedSchema wraps the schema with a format version on disk.
type persistedSchema struct {
	Format int    `json:"format"`
	Schema Schema `json:"schema"`
}

// Create initializes a new table in dir (creating the directory if
// needed) and returns the open handle. A directory that already holds a
// table fails with ErrTableExists.
func Create(dir string, s Schema, bufSize int) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	sp := filepath.Join(dir, schemaName)
	if _, err := os.Stat(sp); err == nil {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, dir)
	}
	data, err := json.MarshalIndent(persistedSchema{Format: FormatVersion, Schema: s}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("table: encoding schema: %w", err)
	}
	t, err := open(dir, s, bufSize)
	if err != nil {
		return nil, err
	}
	// Schema lands after the lock: two racing Creates serialize on the
	// rows file, and the loser sees the winner's schema. It is installed
	// atomically, so a crash never leaves an empty or torn schema.json
	// that Open would refuse.
	err = wal.WriteFileAtomic(sp, 0o644, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err != nil {
		t.f.Close()
		return nil, fmt.Errorf("table: writing schema: %w", err)
	}
	return t, nil
}

// Open opens an existing table, verifying the persisted schema against
// want (pass a zero Schema to accept whatever is stored). The rows file
// is scanned to rebuild the in-memory rows and indexes; a torn final
// line left by a crashed writer is truncated away.
func Open(dir string, want Schema, bufSize int) (*Table, error) {
	data, err := os.ReadFile(filepath.Join(dir, schemaName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrTableMissing, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("table: reading schema: %w", err)
	}
	var ps persistedSchema
	if err := json.Unmarshal(data, &ps); err != nil {
		return nil, fmt.Errorf("table: decoding schema: %w", err)
	}
	if ps.Format != FormatVersion {
		return nil, fmt.Errorf("table: unsupported format %d", ps.Format)
	}
	if err := ps.Schema.Validate(); err != nil {
		return nil, err
	}
	if want.Name != "" && !ps.Schema.equal(want) {
		return nil, fmt.Errorf("%w: %s", ErrSchemaMismatch, dir)
	}
	return open(dir, ps.Schema, bufSize)
}

// OpenOrCreate opens dir's table (verifying its schema) or creates it if
// the directory holds none.
func OpenOrCreate(dir string, s Schema, bufSize int) (*Table, error) {
	t, err := Open(dir, s, bufSize)
	if errors.Is(err, ErrTableMissing) {
		return Create(dir, s, bufSize)
	}
	return t, err
}

// open takes the table's exclusive lock on dir's rows file, creating it
// if need be, and loads its rows under schema s. A torn final line, a
// crashed writer's append, is cut so the next commit extends a clean log;
// corruption anywhere else is an error.
func open(dir string, s Schema, bufSize int) (*Table, error) {
	f, err := wal.OpenLocked(filepath.Join(dir, rowsName), os.O_CREATE)
	if errors.Is(err, wal.ErrLocked) {
		return nil, fmt.Errorf("%w: %s", ErrTableBusy, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	if bufSize <= 0 {
		bufSize = 64
	}
	t := &Table{schema: s, f: f, bufSize: bufSize}
	valid, _, err := wal.ScanLines(f, func(line []byte) error {
		row, err := t.parseRow(line)
		if err != nil {
			return fmt.Errorf("table: row %d: %w", len(t.rows)+1, err)
		}
		t.rows = append(t.rows, row)
		return nil
	})
	if err == nil {
		err = f.TruncateTo(valid)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	t.index = buildIndex(s, t.rows)
	return t, nil
}

// parseRow decodes one JSON-array line into a normalized Row.
func (t *Table) parseRow(line []byte) (Row, error) {
	var vals []json.RawMessage
	if err := json.Unmarshal(line, &vals); err != nil {
		return nil, err
	}
	if len(vals) != len(t.schema.Columns) {
		return nil, fmt.Errorf("has %d values, schema has %d columns", len(vals), len(t.schema.Columns))
	}
	row := make(Row, len(vals))
	for i, c := range t.schema.Columns {
		switch c.Type {
		case String:
			var s string
			if err := json.Unmarshal(vals[i], &s); err != nil {
				return nil, fmt.Errorf("column %q: %w", c.Name, err)
			}
			row[i] = s
		case Int:
			var n json.Number
			if err := json.Unmarshal(vals[i], &n); err != nil {
				return nil, fmt.Errorf("column %q: %w", c.Name, err)
			}
			v, err := strconv.ParseInt(n.String(), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("column %q: %w", c.Name, err)
			}
			row[i] = v
		case Float:
			var v float64
			if err := json.Unmarshal(vals[i], &v); err != nil {
				return nil, fmt.Errorf("column %q: %w", c.Name, err)
			}
			row[i] = v
		case Bool:
			var v bool
			if err := json.Unmarshal(vals[i], &v); err != nil {
				return nil, fmt.Errorf("column %q: %w", c.Name, err)
			}
			row[i] = v
		}
	}
	return row, nil
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len reports the committed row count. Buffered rows are invisible until
// Commit.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.rows)
}

// Insert buffers one row, validating arity and types. Go ints are
// accepted for Int and Float columns; a non-finite float is rejected up
// front (JSON cannot represent it, and a half-committed buffer is worse
// than a refused insert). When the buffer reaches the commit size the
// batch is committed automatically.
func (t *Table) Insert(vals ...any) error {
	if len(vals) != len(t.schema.Columns) {
		return fmt.Errorf("table: insert has %d values, schema has %d columns", len(vals), len(t.schema.Columns))
	}
	row := make(Row, len(vals))
	for i, c := range t.schema.Columns {
		v, err := normalize(c, vals[i])
		if err != nil {
			return err
		}
		row[i] = v
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, row)
	if len(t.buf) >= t.bufSize {
		return t.commitLocked()
	}
	return nil
}

// normalize coerces v to the column's storage type.
func normalize(c Column, v any) (any, error) {
	switch c.Type {
	case String:
		if s, ok := v.(string); ok {
			return s, nil
		}
	case Int:
		switch n := v.(type) {
		case int:
			return int64(n), nil
		case int64:
			return n, nil
		}
	case Float:
		switch n := v.(type) {
		case float64:
			if math.IsNaN(n) || math.IsInf(n, 0) {
				return nil, fmt.Errorf("table: column %q: non-finite value %v", c.Name, n)
			}
			return n, nil
		case int:
			return float64(n), nil
		case int64:
			return float64(n), nil
		}
	case Bool:
		if b, ok := v.(bool); ok {
			return b, nil
		}
	}
	return nil, fmt.Errorf("table: column %q (%s) cannot hold %T", c.Name, c.Type, v)
}

// Commit appends every buffered row to the rows file in one write,
// fsyncs, and makes them visible to queries. After a failed append or
// fsync, Commit and Close return wal.ErrFailed and write nothing, so no
// row lands behind a torn one or twice; reopening recovers every row.
func (t *Table) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commitLocked()
}

func (t *Table) commitLocked() error {
	if len(t.buf) == 0 {
		return nil
	}
	var out []byte
	for _, row := range t.buf {
		line, err := json.Marshal([]any(row))
		if err != nil {
			return fmt.Errorf("table: encoding row: %w", err)
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	if err := t.f.Append(out); err != nil {
		return fmt.Errorf("table: appending rows: %w", err)
	}
	if err := t.f.Sync(); err != nil {
		return fmt.Errorf("table: syncing rows: %w", err)
	}
	for _, row := range t.buf {
		id := len(t.rows)
		t.rows = append(t.rows, row)
		t.indexRow(id, row)
	}
	t.buf = t.buf[:0]
	return nil
}

// Get returns the committed row with the given id (its position in
// commit order), or nil when out of range. The returned slice is shared
// — callers must not mutate it.
func (t *Table) Get(id int) Row {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || id >= len(t.rows) {
		return nil
	}
	return t.rows[id]
}

// Scan visits every committed row in commit order until visit returns
// false. Rows are shared — visit must not mutate or retain them past the
// call.
func (t *Table) Scan(visit func(id int, r Row) bool) {
	t.mu.Lock()
	rows := t.rows
	t.mu.Unlock()
	for i, r := range rows {
		if !visit(i, r) {
			return
		}
	}
}

// buildIndex constructs the hash indexes for every Indexed column.
func buildIndex(s Schema, rows []Row) map[string]map[string][]int {
	idx := make(map[string]map[string][]int)
	for _, c := range s.Columns {
		if c.Indexed {
			idx[c.Name] = make(map[string][]int)
		}
	}
	t := &Table{schema: s, index: idx}
	for i, r := range rows {
		t.indexRow(i, r)
	}
	return idx
}

// indexRow adds one committed row to the indexes. Caller holds t.mu (or
// exclusive construction).
func (t *Table) indexRow(id int, r Row) {
	for i, c := range t.schema.Columns {
		if m := t.index[c.Name]; m != nil {
			k := encodeKey(r[i])
			m[k] = append(m[k], id)
		}
	}
}

// encodeKey renders a normalized value as its canonical index key.
func encodeKey(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	}
	return fmt.Sprint(v)
}

// Lookup returns the ids of committed rows whose indexed column equals
// val (normalized like Insert). It errors on unknown or unindexed
// columns — the caller asked for an index the schema does not provide.
func (t *Table) Lookup(col string, val any) ([]int, error) {
	_, c, ok := t.schema.Col(col)
	if !ok {
		return nil, fmt.Errorf("table: no column %q", col)
	}
	if !c.Indexed {
		return nil, fmt.Errorf("table: column %q is not indexed", col)
	}
	v, err := normalize(c, val)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.index[col][encodeKey(v)]
	return append([]int(nil), ids...), nil
}

// Close commits any buffered rows and releases the table's lock; rows it
// could not commit are dropped with the error. Closing twice is harmless,
// and a Commit after Close fails.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cerr := t.commitLocked()
	t.buf = nil
	ferr := t.f.Close()
	if cerr != nil {
		return cerr
	}
	if ferr != nil {
		return fmt.Errorf("table: %w", ferr)
	}
	return nil
}
