// Package cas is a persistent, content-addressed store for measured
// performance values — the disk tier of the measurement cache. The paper's
// symmetry argument makes a canonical assignment class's performance a pure
// function of (testbed identity, topology, canonical form); cas persists
// that function's graph, so a class measured by ANY prior campaign on a
// host — last week's run, a sibling fleet member, a killed-and-resumed
// process — is never simulated again.
//
// Layout: one directory holding a single append-only segment file plus a
// lock file. Every record is self-checking:
//
//	[keyLen u32 LE][crc32 u32 LE][key bytes][perf float64 bits LE]
//
// with the CRC taken over key+perf. The in-memory index is rebuilt by
// scanning the segment at Open; nothing else is ever persisted, so there
// is no index to corrupt. Records are immutable and duplicate appends of a
// key are harmless (first-writer-wins in the index — the value is a pure
// function of the key, so duplicates carry the same performance).
//
// Crash safety: each Put is a single O_APPEND write followed by fsync,
// through a wal.File. A crash mid-append leaves a torn tail that fails
// its length or CRC check; Open (and any writer holding the exclusive
// lock) truncates it away, while lock-free readers stop scanning at it,
// so only whole fsynced records ever reach the index. A failed append or
// fsync fails the store closed for writing (wal.ErrFailed).
//
// Concurrency: one process may share a Store across goroutines (all
// methods lock s.mu). Several PROCESSES may share one directory: appends
// serialize on an flock'd lock file, and a Get miss triggers a catch-up
// scan of whatever other processes appended since, so fleet members on a
// host see each other's measurements within one lookup. Readers take no
// lock — the file only grows (truncation happens only under the exclusive
// lock, and only ever removes bytes no reader could have validated).
package cas

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"optassign/internal/wal"
)

// segmentName is the single append-only data file inside a store
// directory; lockName is the flock target serializing cross-process
// appends (flocking the segment itself would race with O_APPEND dups on
// some platforms).
const (
	segmentName = "measurements.cas"
	lockName    = "lock"
)

// header identifies a segment file. The version byte lets a future format
// refuse old files instead of misparsing them.
var header = []byte{'O', 'C', 'A', 'S', 1, 0, 0, 0}

// maxKeyLen bounds a record's key so a corrupt length prefix cannot make
// the scanner allocate gigabytes. Cache keys are identity+topology+
// canonical form — a few hundred bytes in practice.
const maxKeyLen = 1 << 20

// ErrCorruptHeader reports a segment whose leading bytes are not a cas
// header — the directory holds something that is not a measurement store.
var ErrCorruptHeader = errors.New("cas: segment header mismatch (not a measurement store, or an incompatible version)")

// Store is an open measurement store. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	seg     *wal.File
	lock    *os.File // flock target for cross-process append ordering
	index   map[string]float64
	scanned int64 // segment bytes validated into the index
}

// Open opens (creating if absent) the store in dir. The segment is
// scanned to rebuild the index; a torn tail left by a crashed writer is
// truncated away under the exclusive lock.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	seg, err := wal.Open(filepath.Join(dir, segmentName), os.O_CREATE)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{seg: seg, lock: lock, index: make(map[string]float64)}

	// Header and torn-tail repair happen under the exclusive lock.
	if err := wal.LockEx(lock); err != nil {
		seg.Close()
		lock.Close()
		return nil, fmt.Errorf("cas: locking %s: %w", dir, err)
	}
	defer wal.Unlock(lock)
	size, err := seg.Size()
	if err == nil && size == 0 {
		if err = seg.Append(header); err == nil {
			err = seg.Sync()
		}
		if err != nil {
			err = fmt.Errorf("cas: writing header: %w", err)
		}
	} else if err == nil {
		err = s.checkHeader()
	}
	if err == nil {
		s.scanned = int64(len(header))
		err = s.catchUpExclusive()
	}
	if err != nil {
		seg.Close()
		lock.Close()
		return nil, err
	}
	return s, nil
}

// checkHeader validates the segment's leading bytes.
func (s *Store) checkHeader() error {
	buf := make([]byte, len(header))
	if _, err := s.seg.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("cas: reading header: %w", err)
	}
	if !bytes.Equal(buf, header) {
		return ErrCorruptHeader
	}
	return nil
}

// catchUpLocked scans segment bytes from s.scanned to EOF, adding every
// valid record to the index and leaving s.scanned at the end of the last
// valid record. Caller holds s.mu (or is inside Open). It never treats an
// invalid record as fatal — that is how a torn tail (or a concurrent
// writer's half-visible append) presents, and the caller decides whether
// to truncate (exclusive-lock holders) or ignore it (readers).
func (s *Store) catchUpLocked() error {
	size, err := s.seg.Size()
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	if size < s.scanned {
		// The segment shrank under us — only a torn-tail truncation by
		// another writer can do that, and it only removes bytes that never
		// validated, so our index holds no record from the removed range.
		// Restart the unvalidated region at the new end of file.
		s.scanned = size
		return nil
	}
	if size == s.scanned {
		return nil
	}
	r := io.NewSectionReader(s.seg, s.scanned, size-s.scanned)
	var prefix [8]byte
	off := s.scanned
	for {
		if _, err := io.ReadFull(r, prefix[:]); err != nil {
			return nil // clean EOF or torn length prefix: stop here
		}
		keyLen := binary.LittleEndian.Uint32(prefix[0:4])
		crc := binary.LittleEndian.Uint32(prefix[4:8])
		if keyLen == 0 || keyLen > maxKeyLen {
			return nil // corrupt length: torn tail starts at off
		}
		payload := make([]byte, int(keyLen)+8)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil // record cut short: torn tail
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil // bit rot or torn write: reject the tail
		}
		key := string(payload[:keyLen])
		perf := math.Float64frombits(binary.LittleEndian.Uint64(payload[keyLen:]))
		if _, ok := s.index[key]; !ok {
			s.index[key] = perf
		}
		off += int64(8 + len(payload))
		s.scanned = off
	}
}

// catchUpExclusive is catchUpLocked for a holder of the exclusive lock:
// no other process can be mid-append, so whatever fails validation past
// s.scanned is a torn tail, and it is cut so the next append extends a
// clean log.
func (s *Store) catchUpExclusive() error {
	if err := s.catchUpLocked(); err != nil {
		return err
	}
	if err := s.seg.TruncateTo(s.scanned); err != nil {
		return fmt.Errorf("cas: truncating torn tail: %w", err)
	}
	return nil
}

// Get returns the stored performance for key. A warm hit is a single map
// read — no locks beyond s.mu, no syscalls, no allocations. On a miss the
// store catches up on records other processes appended since the last
// scan and retries, so one host's fleet members serve each other within a
// lookup.
func (s *Store) Get(key string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if perf, ok := s.index[key]; ok {
		return perf, true
	}
	// Miss: another process may have measured this class since our last
	// scan. The catch-up is one stat plus a read of only the new bytes,
	// both trivial next to the simulation a true miss costs.
	if err := s.catchUpLocked(); err != nil {
		return 0, false
	}
	perf, ok := s.index[key]
	return perf, ok
}

// Put appends (key, perf) and fsyncs it. Appends from all processes
// serialize on the lock file; a key already present (here or appended by
// a peer since our last scan) is not written again.
func (s *Store) Put(key string, perf float64) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("cas: invalid key length %d", len(key))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return nil
	}
	if err := wal.LockEx(s.lock); err != nil {
		return fmt.Errorf("cas: locking: %w", err)
	}
	defer wal.Unlock(s.lock)
	// Under the exclusive lock: absorb peers' appends (the key may have
	// landed already), and cut any crash-torn tail.
	if err := s.catchUpExclusive(); err != nil {
		return err
	}
	if _, ok := s.index[key]; ok {
		return nil
	}
	rec := make([]byte, 8+len(key)+8)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(key)))
	copy(rec[8:], key)
	binary.LittleEndian.PutUint64(rec[8+len(key):], math.Float64bits(perf))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[8:]))
	if err := s.seg.Append(rec); err != nil {
		return fmt.Errorf("cas: appending record: %w", err)
	}
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("cas: syncing record: %w", err)
	}
	s.index[key] = perf
	s.scanned += int64(len(rec))
	return nil
}

// Len reports the number of distinct keys in the index.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes reports the validated segment size — the on-disk footprint of the
// store as of the last scan.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.scanned
}

// Close releases the store's files. The segment needs no final flush —
// every Put synced itself.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := errors.Join(s.seg.Close(), s.lock.Close()); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	return nil
}
