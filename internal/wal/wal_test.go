package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestFileFailsClosed: after a short write, a failed fsync or a failed
// truncate, every later Append, Sync and TruncateTo returns ErrFailed
// wrapping that first cause and touches nothing, and Close still closes.
func TestFileFailsClosed(t *testing.T) {
	for _, c := range []struct {
		name  string
		ft    Faults
		cause error
		fail  func(f *File) error
		want  string // the file's bytes once it failed
	}{
		{"short-write", Faults{ShortWrite: 2}, syscall.ENOSPC,
			func(f *File) error { return f.Append([]byte("bbbbbbbb\n")) }, "aaaa\nbbbb"},
		{"sync", Faults{FailSync: 1}, syscall.EIO,
			func(f *File) error { return f.Sync() }, "aaaa\n"},
		{"truncate", Faults{FailTruncate: 1}, syscall.EIO,
			func(f *File) error { return f.TruncateTo(2) }, "aaaa\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			InjectFaults(t, ".log", c.ft)
			path := filepath.Join(t.TempDir(), "f.log")
			f, err := Open(path, os.O_CREATE)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Append([]byte("aaaa\n")); err != nil {
				t.Fatal(err)
			}
			first := c.fail(f)
			if !errors.Is(first, ErrFailed) || !errors.Is(first, c.cause) {
				t.Fatalf("failing call: err = %v, want ErrFailed wrapping %v", first, c.cause)
			}
			for name, op := range map[string]func() error{
				"Append":     func() error { return f.Append([]byte("c\n")) },
				"Sync":       f.Sync,
				"TruncateTo": func() error { return f.TruncateTo(0) },
			} {
				if err := op(); !errors.Is(err, ErrFailed) || !errors.Is(err, c.cause) {
					t.Errorf("%s after the failure: err = %v, want ErrFailed wrapping %v", name, err, c.cause)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := readFile(t, path); got != c.want {
				t.Fatalf("file holds %q, want %q", got, c.want)
			}
		})
	}
}

// TestCloseWaitsForSync: an fsync runs beside appends, Close returns only
// once it is done, and a closed File refuses every operation with
// os.ErrClosed.
func TestCloseWaitsForSync(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	prev := openFile
	t.Cleanup(func() { openFile = prev })
	openFile = func(path string, flag int) (file, error) {
		f, err := prev(path, flag)
		if err != nil {
			return nil, err
		}
		return slowSync{f, entered, release}, nil
	}
	path := filepath.Join(t.TempDir(), "f.log")
	f, err := Open(path, os.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- f.Sync() }()
	<-entered
	if err := f.Append([]byte("beside\n")); err != nil {
		t.Fatalf("Append beside an fsync: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- f.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while an fsync was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-synced; err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for name, err := range map[string]error{
		"Append":     f.Append([]byte("late\n")),
		"Sync":       f.Sync(),
		"TruncateTo": f.TruncateTo(0),
	} {
		if !errors.Is(err, os.ErrClosed) {
			t.Errorf("%s after Close: err = %v, want os.ErrClosed", name, err)
		}
	}
	if got := readFile(t, path); got != "beside\n" {
		t.Fatalf("file holds %q", got)
	}
}

type slowSync struct {
	file
	entered, release chan struct{}
}

func (s slowSync) Sync() error {
	close(s.entered)
	<-s.release
	return s.file.Sync()
}

// TestScanLines: complete lines are visited without their newline and
// counted in valid; an unterminated tail is reported torn and not
// visited; lines longer than the read buffer come back whole; a visit
// error stops the scan and is returned as is.
func TestScanLines(t *testing.T) {
	long := strings.Repeat("x", 200<<10)
	for _, c := range []struct {
		in    string
		lines []string
		valid int64
		torn  bool
	}{
		{"", nil, 0, false},
		{"a\n", []string{"a"}, 2, false},
		{"a\nbc", []string{"a"}, 2, true},
		{"\n\n", []string{"", ""}, 2, false},
		{long + "\n" + long, []string{long}, int64(len(long) + 1), true},
		{"a\n" + long + "\nb\n", []string{"a", long, "b"}, int64(len(long) + 5), false},
	} {
		var got []string
		valid, torn, err := ScanLines(strings.NewReader(c.in), func(line []byte) error {
			got = append(got, string(line))
			return nil
		})
		if err != nil || valid != c.valid || torn != c.torn || strings.Join(got, "|") != strings.Join(c.lines, "|") || len(got) != len(c.lines) {
			t.Errorf("ScanLines(%.20q…): %d lines, valid %d, torn %v, err %v; want %d lines, valid %d, torn %v",
				c.in, len(got), valid, torn, err, len(c.lines), c.valid, c.torn)
		}
	}

	errBad := errors.New("bad line")
	valid, torn, err := ScanLines(strings.NewReader("ok\nbad\nok\n"), func(line []byte) error {
		if bytes.Equal(line, []byte("bad")) {
			return errBad
		}
		return nil
	})
	if err != errBad || valid != 3 || torn {
		t.Fatalf("visit error: valid %d, torn %v, err %v; want 3, false, the visit's error", valid, torn, err)
	}
}
