package wal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	write := func(data string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, data)
			return err
		}
	}
	if err := WriteFileAtomic(path, 0o644, write("old\n")); err != nil {
		t.Fatal(err)
	}

	// A write that fails halfway leaves the old bytes and no temp file.
	errDisk := errors.New("disk full")
	err := WriteFileAtomic(path, 0o644, func(w io.Writer) error {
		if _, err := io.WriteString(w, "partial"); err != nil {
			return err
		}
		return errDisk
	})
	if !errors.Is(err, errDisk) {
		t.Fatalf("err = %v, want the write's error", err)
	}
	assertDir := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("target holds %q, want %q", got, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			t.Fatalf("directory holds %d entries, want only the target", len(entries))
		}
	}
	assertDir("old\n")

	// A successful write replaces the bytes and applies perm.
	if err := WriteFileAtomic(path, 0o600, write("new\n")); err != nil {
		t.Fatal(err)
	}
	assertDir("new\n")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Fatalf("mode %v, want 0600", fi.Mode().Perm())
	}

	// A missing directory is a clean error.
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), 0o644, write("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
