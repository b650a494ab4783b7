package wal

import (
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
)

// Faults scripts a fault-injecting file: the nth call of each kind
// fails, counting from 1 per opened file; 0 never fails.
type Faults struct {
	// ShortWrite's write lands the first half of its bytes, then fails
	// with ENOSPC, as a full disk does.
	ShortWrite int
	// FailSync's fsync fails with EIO.
	FailSync int
	// FailTruncate's truncate fails with EIO.
	FailTruncate int
}

// InjectFaults puts a file failing as ft scripts under every File
// opened on a path ending in suffix, until the test ends.
func InjectFaults(t testing.TB, suffix string, ft Faults) {
	prev := openFile
	t.Cleanup(func() { openFile = prev })
	openFile = func(path string, flag int) (file, error) {
		f, err := prev(path, flag)
		if err != nil || !strings.HasSuffix(path, suffix) {
			return f, err
		}
		return &faultFile{file: f, ft: ft}, nil
	}
}

type faultFile struct {
	file
	ft                    Faults
	writes, syncs, truncs atomic.Int64
}

func (f *faultFile) Write(p []byte) (int, error) {
	if int(f.writes.Add(1)) == f.ft.ShortWrite {
		n, err := f.file.Write(p[:len(p)/2])
		if err == nil {
			err = &os.PathError{Op: "write", Path: "injected", Err: syscall.ENOSPC}
		}
		return n, err
	}
	return f.file.Write(p)
}

func (f *faultFile) Sync() error {
	if int(f.syncs.Add(1)) == f.ft.FailSync {
		return &os.PathError{Op: "sync", Path: "injected", Err: syscall.EIO}
	}
	return f.file.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if int(f.truncs.Add(1)) == f.ft.FailTruncate {
		return &os.PathError{Op: "truncate", Path: "injected", Err: syscall.EIO}
	}
	return f.file.Truncate(size)
}
