// Package wal makes append-only files durable: exclusive advisory locks,
// an O_APPEND File, a scanner for newline-terminated records that reports
// a torn final line, and atomic whole-file replacement. Record formats
// belong to its callers: the campaign journal, the cas segment and the
// result table.
//
// A File fails closed: after its first failed write, truncate or fsync,
// every later Append, Sync and TruncateTo returns ErrFailed wrapping that
// first cause. A short write leaves a torn tail and a failed fsync may
// have dropped dirty pages, so no later append may build on either; the
// owner reopens the file, which cuts the torn tail.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

var (
	// ErrLocked reports that TryLockEx found the file locked by another
	// process, or another open descriptor in this one.
	ErrLocked = errors.New("wal: file is locked by another holder")
	// ErrFailed marks a File that failed closed.
	ErrFailed = errors.New("wal: file failed closed")
)

// file is what a File uses of an *os.File; tests substitute a
// fault-injecting one through openFile.
type file interface {
	io.Reader
	io.ReaderAt
	io.Writer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Fd() uintptr
	Close() error
}

var openFile = func(path string, flag int) (file, error) { return os.OpenFile(path, flag, 0o644) }

// File is an append-only file, safe for concurrent use.
type File struct {
	f      file
	mu     sync.Mutex // orders Append, TruncateTo and the state below
	err    error      // the first failure, as ErrFailed
	closed bool
	syncs  sync.WaitGroup // fsyncs in flight, which run outside mu
}

// Open opens path for reading and appending, with flag's extra bits
// (os.O_CREATE, os.O_EXCL) and mode 0644 for a created file.
func Open(path string, flag int) (*File, error) {
	f, err := openFile(path, flag|os.O_RDWR|os.O_APPEND)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// OpenLocked is Open plus TryLockEx: the caller owns the file until
// Close, and an opener that finds it held gets ErrLocked.
func OpenLocked(path string, flag int) (*File, error) {
	f, err := Open(path, flag)
	if err != nil {
		return nil, err
	}
	if err := TryLockEx(f.f); err != nil {
		f.f.Close()
		return nil, fmt.Errorf("wal: locking %s: %w", path, err)
	}
	return f, nil
}

// usable returns os.ErrClosed after Close, the first failure after one.
// Caller holds f.mu.
func (f *File) usable() error {
	if f.closed {
		return os.ErrClosed
	}
	return f.err
}

// fail records cause unless an earlier one is recorded, and returns the
// failure. Caller holds f.mu.
func (f *File) fail(cause error) error {
	if f.err == nil {
		f.err = fmt.Errorf("%w: %w", ErrFailed, cause)
	}
	return f.err
}

// Append writes p to the end of the file in one write, straight to the
// descriptor: once it returns nil, a process crash loses none of p.
func (f *File) Append(p []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usable(); err != nil {
		return err
	}
	if _, err := f.f.Write(p); err != nil {
		return f.fail(err)
	}
	return nil
}

// Sync forces every byte appended before the call down to stable
// storage. The fsync runs outside the append lock, so appends go on
// beside it; Close waits for it.
func (f *File) Sync() error {
	f.mu.Lock()
	if err := f.usable(); err != nil {
		f.mu.Unlock()
		return err
	}
	f.syncs.Add(1)
	f.mu.Unlock()
	defer f.syncs.Done()
	if err := f.f.Sync(); err != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.fail(err)
	}
	return nil
}

// TruncateTo cuts the file back to its first valid bytes if it is
// longer: a torn tail, which only the lock holder may cut.
func (f *File) TruncateTo(valid int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.usable(); err != nil {
		return err
	}
	size, err := f.Size()
	if err == nil && size > valid {
		if err := f.f.Truncate(valid); err != nil {
			return f.fail(err)
		}
	}
	return err
}

// Size returns the file's current length.
func (f *File) Size() (int64, error) {
	fi, err := f.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	return fi.Size(), nil
}

// Read and ReadAt read the file; the read offset starts at 0.
func (f *File) Read(p []byte) (int, error)              { return f.f.Read(p) }
func (f *File) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

// Close waits for the fsyncs in flight, then closes the file and so
// releases its lock. Closing twice is harmless.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	f.syncs.Wait()
	return f.f.Close()
}

// ScanLines hands each newline-terminated line of r to visit without its
// newline until visit fails (its error is returned as is), r fails or r
// ends. It returns the length of the lines visit accepted and whether r
// ended in an unterminated, unvisited line: a torn tail. Its memory
// tracks the longest line, never the size of r.
func ScanLines(r io.Reader, visit func(line []byte) error) (valid int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 64*1024)
	var spill []byte // reassembles lines longer than the read buffer
	for {
		chunk, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			spill = append(spill, chunk...)
			continue
		}
		line := chunk
		if len(spill) > 0 {
			spill = append(spill, chunk...)
			line = spill
		}
		if errors.Is(err, io.EOF) {
			return valid, len(line) > 0, nil
		}
		if err != nil {
			return valid, false, fmt.Errorf("wal: reading: %w", err)
		}
		if err := visit(line[:len(line)-1]); err != nil {
			return valid, false, err
		}
		valid += int64(len(line))
		spill = spill[:0]
	}
}

// WriteFileAtomic replaces the file at path with the bytes write
// produces, through a temporary file that is synced, given perm and
// renamed over path, and a directory sync that makes the rename durable:
// a crash leaves the old file or the new one, never a torn one. If a step
// before the rename fails, the target is untouched.
func WriteFileAtomic(path string, perm os.FileMode, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a renamed entry in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
