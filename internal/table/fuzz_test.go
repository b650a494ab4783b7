package table_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"optassign/internal/coord"
	"optassign/internal/table"
)

// rowsOf returns every committed row of tb, in commit order.
func rowsOf(tb *table.Table) []table.Row {
	var rows []table.Row
	tb.Scan(func(_ int, r table.Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows
}

// FuzzTableRows opens campaignd's table over arbitrary rows.tab bytes:
// Open must not panic; when it accepts the bytes, a second Open over the
// file it left must load the same rows, and the accepted rows, inserted
// and committed into a fresh table and reopened, must come back equal.
func FuzzTableRows(f *testing.F) {
	schema := coord.CampaignsSchema()
	row := `["c1","Stateful","t2-8x4x2","greedy(explore=0.1)","completed",7,16,1200,3,2.5,1.25e9,1.3e9,1.27e9,1.4e9,3.9,true,1700000000,1700000123]`
	f.Add([]byte(""))
	f.Add([]byte(row + "\n"))
	f.Add([]byte(row + "\n" + row[:40]))
	f.Add([]byte(row + "\n" + `["c2","b","t","","failed",-1,0,0,0,0,-0,1e-7,0,1e21,0,false,0,0]` + "\n"))
	f.Add([]byte(`["x"]` + "\n"))
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		tb, err := table.Create(dir, schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "rows.tab"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		tb, err = table.Open(dir, schema, 0)
		if err != nil {
			return
		}
		rows := rowsOf(tb)
		if err := tb.Close(); err != nil {
			t.Fatal(err)
		}
		tb, err = table.Open(dir, schema, 0)
		if err != nil {
			t.Fatalf("second Open over the cut file: %v", err)
		}
		if again := rowsOf(tb); !reflect.DeepEqual(again, rows) {
			t.Fatalf("second Open loaded %d rows, first %d", len(again), len(rows))
		}
		tb.Close()

		fresh := t.TempDir()
		tb, err = table.Create(fresh, schema, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range rows {
			if err := tb.Insert(r...); err != nil {
				t.Fatalf("re-inserting accepted row %d: %v", i, err)
			}
		}
		if err := tb.Close(); err != nil {
			t.Fatal(err)
		}
		tb, err = table.Open(fresh, schema, 0)
		if err != nil {
			t.Fatalf("reopening the re-committed rows: %v", err)
		}
		defer tb.Close()
		if back := rowsOf(tb); !reflect.DeepEqual(back, rows) {
			t.Fatalf("re-committed rows came back as %v, want %v", back, rows)
		}
	})
}

// FuzzParseFilter feeds arbitrary expressions to ParseFilter, the parser
// behind campaignd's GET /query?filter=. It must not panic, every error
// must wrap ErrBadFilter (the HTTP layer maps that family to a 400), and
// every accepted condition must name a schema column, carry a value of
// that column's type and use an operator the type supports.
func FuzzParseFilter(f *testing.F) {
	schema := coord.CampaignsSchema()
	for _, seed := range []string{
		"",
		"benchmark=IPFwd-L1,gap_pct<2,testbed~local,satisfied=true",
		"seed>=3, samples!=0 ,loss_pct<=2.5e-1",
		"status~run,,finished_unix>1700000000",
		"satisfied<true",
		"tasks~4",
		"nope=1",
		"=x",
		"gap_pct<NaN",
		"seed=0x10",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		flt, err := table.ParseFilter(expr, schema)
		if err != nil {
			if !errors.Is(err, table.ErrBadFilter) {
				t.Fatalf("ParseFilter(%q): error %v does not wrap ErrBadFilter", expr, err)
			}
			return
		}
		for _, c := range flt.Conds {
			_, col, ok := schema.Col(c.Col)
			if !ok {
				t.Fatalf("ParseFilter(%q): condition on unknown column %q", expr, c.Col)
			}
			var typed bool
			switch col.Type {
			case table.String:
				_, typed = c.Val.(string)
			case table.Int:
				_, typed = c.Val.(int64)
			case table.Float:
				_, typed = c.Val.(float64)
			case table.Bool:
				_, typed = c.Val.(bool)
				typed = typed && (c.Op == table.OpEq || c.Op == table.OpNe)
			}
			if !typed || c.Op > table.OpHas || (c.Op == table.OpHas && col.Type != table.String) {
				t.Fatalf("ParseFilter(%q): condition %s %v %#v does not fit %s column", expr, c.Col, c.Op, c.Val, col.Type)
			}
		}
	})
}
