//go:build !unix

package wal

// Platforms without flock get no locks: every call succeeds, and nothing
// keeps two processes from sharing a journal, a table or a store.

func TryLockEx(f interface{ Fd() uintptr }) error { return nil }

func LockEx(f interface{ Fd() uintptr }) error { return nil }

func Unlock(f interface{ Fd() uintptr }) {}
