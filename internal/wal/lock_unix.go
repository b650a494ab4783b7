//go:build unix

package wal

import "syscall"

// TryLockEx takes a non-blocking exclusive advisory lock on f, or
// returns ErrLocked when another holder has it, so a caller can refuse to
// share an append-only file. The lock belongs to f's open file
// description and is released by Unlock or by closing f.
func TryLockEx(f interface{ Fd() uintptr }) error {
	if err := flock(f, syscall.LOCK_EX|syscall.LOCK_NB); err != syscall.EWOULDBLOCK {
		return err
	}
	return ErrLocked
}

// LockEx is TryLockEx that blocks until the lock is granted.
func LockEx(f interface{ Fd() uintptr }) error { return flock(f, syscall.LOCK_EX) }

// Unlock releases a lock taken by TryLockEx or LockEx. Errors are
// ignored: the lock dies with the descriptor anyway, and a failed unlock
// must not mask the operation it guarded.
func Unlock(f interface{ Fd() uintptr }) { _ = flock(f, syscall.LOCK_UN) }

// flock retries EINTR: a signal during a blocking flock must not surface
// as a failure.
func flock(f interface{ Fd() uintptr }, how int) error {
	for {
		if err := syscall.Flock(int(f.Fd()), how); err != syscall.EINTR {
			return err
		}
	}
}
