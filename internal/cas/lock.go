package cas

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// ErrLocked reports that a non-blocking lock attempt found the file
// already exclusively locked — by another process, or by another open
// descriptor in this one. Callers that need a domain-specific error
// (e.g. campaign.ErrJournalBusy) wrap this one.
var ErrLocked = errors.New("cas: file is locked by another holder")

// TryLockEx takes a non-blocking exclusive advisory lock on f. It
// returns ErrLocked when the lock is held elsewhere, so a caller can
// refuse to share an append-only file rather than silently interleave
// writes with a concurrent owner. On platforms without flock the call
// is a no-op that always succeeds (the same degradation the store's
// own locking documents in lock_fallback.go).
//
// The lock belongs to f's open file description and is released by
// Unlock or by closing f.
func TryLockEx(f interface{ Fd() uintptr }) error { return tryFlockEx(f) }

// Unlock releases a lock taken by TryLockEx. Errors are ignored for
// the same reason funlock's are: the lock dies with the descriptor,
// and a failed unlock must not mask the operation it guarded.
func Unlock(f interface{ Fd() uintptr }) { funlock(f) }

// WriteFileAtomic replaces the file at path with the bytes write
// produces: they go to a temporary file in the same directory, which is
// synced, given perm, renamed over path, and the directory is synced, so
// a crash at any instant leaves either the previous file or the new one
// fully intact — never a torn or empty file. Without the final directory
// sync the rename itself could be lost on power failure on some
// filesystems. If write (or any step before the rename) fails, the
// target is untouched and the temporary file is removed.
func WriteFileAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a just-created or just-renamed
// entry in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
