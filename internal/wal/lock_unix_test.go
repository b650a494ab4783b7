//go:build unix

package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestLocks: an exclusively locked file refuses a second locker with
// ErrLocked, through OpenLocked and TryLockEx alike, until the holder
// unlocks or closes it.
func TestLocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.log")
	f, err := OpenLocked(path, os.O_CREATE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLocked(path, 0); !errors.Is(err, ErrLocked) {
		t.Fatalf("second OpenLocked: err = %v, want ErrLocked", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	a, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := LockEx(a); err != nil {
		t.Fatal(err)
	}
	if err := TryLockEx(b); !errors.Is(err, ErrLocked) {
		t.Fatalf("TryLockEx beside LockEx: err = %v, want ErrLocked", err)
	}
	Unlock(a)
	if err := TryLockEx(b); err != nil {
		t.Fatalf("TryLockEx after Unlock: %v", err)
	}
}
