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
// Crash safety: each PutBatch is the first half of a group commit, a
// single O_APPEND write of all its new records through a wal.File; Put
// is a batch of one followed by Sync. The second half is the store's
// syncer, a goroutine that runs while appends wait for their fsync: each
// of its fsyncs covers every batch appended before it started, so
// batches appended while one fsync runs share the next. Until its fsync
// lands a record is hidden from every reader in the process (a Get of
// its key waits for that fsync), and a failed fsync takes the records it
// covered out of the index for good. Sync waits for every record
// appended before the call. A crash can tear only the tail of the
// segment: the scan serves the whole records before the first one that
// fails its length or CRC check, Open (and any writer holding the
// exclusive lock) truncates the rest away, and lock-free readers stop
// scanning at it. A failed append or fsync fails the store closed for
// writing (wal.ErrFailed). The caller picks the durability unit: core's
// batch path waits for Sync before any outcome of a chunk it wrote is
// committed, so a crash loses only cache entries of draws no journal
// holds, and those re-measure bit for bit.
//
// Concurrency: one process may share a Store across goroutines (all
// methods lock s.mu, which the syncer releases while it fsyncs). Several
// PROCESSES may share one directory: appends serialize on an flock'd
// lock file, and a Get miss triggers a catch-up scan of whatever other
// processes appended since, so fleet members on a host see each other's
// measurements within one lookup (a peer may read a record before its
// fsync lands, as it always could between append and fsync). Readers
// take no lock — the file only grows (truncation happens only under the
// exclusive lock, and only ever removes bytes no reader could have
// validated).
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

	// The syncer's state, all under mu. pending holds the records
	// appended but not yet fsynced, which the index gets once their fsync
	// lands; unsynced is the keys of those appended since the running
	// fsync began. appends counts the appending PutBatch calls and
	// settled those a finished fsync covered, failed or not. syncErr is
	// the first failed fsync that neither Sync nor Close has returned.
	// settledCond is signalled on mu as each fsync settles and as the
	// syncer exits.
	pending          map[string]float64
	unsynced         []string
	appends, settled uint64
	syncing, closed  bool
	syncErr          error
	settledCond      sync.Cond
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
	s := &Store{seg: seg, lock: lock, index: make(map[string]float64), pending: make(map[string]float64)}
	s.settledCond.L = &s.mu

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
// read — no locks beyond s.mu, no syscalls, no allocations. A key whose
// record still waits for its fsync is served once the fsync lands, and
// not at all if it fails. On a miss the store catches up on records
// other processes appended since the last scan and retries, so one
// host's fleet members serve each other within a lookup.
func (s *Store) Get(key string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if perf, ok := s.index[key]; ok {
		return perf, true
	}
	if len(s.pending) > 0 {
		for s.isPendingLocked(key) {
			s.settledCond.Wait()
		}
		if perf, ok := s.index[key]; ok {
			return perf, true
		}
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

// isPendingLocked reports whether key's record waits for its fsync.
// Caller holds s.mu.
func (s *Store) isPendingLocked(key string) bool {
	_, ok := s.pending[key]
	return ok
}

// Put appends (key, perf) and waits for its fsync: a PutBatch of one
// key, then Sync.
func (s *Store) Put(key string, perf float64) error {
	if err := s.PutBatch([]string{key}, []float64{perf}); err != nil {
		return err
	}
	return s.Sync()
}

// PutBatch appends (keys[i], perfs[i]) for every key not yet stored, as
// the first half of a group commit: under one hold of the lock file, one
// catch-up with peers' appends (which cuts a torn tail) and one append of
// all the records. It returns without waiting for the fsync, which the
// syncer runs; Sync waits for it. A key already present, here or appended
// by a peer since our last scan, waiting for its fsync, or repeated
// earlier in keys, is not written again. On nil every new record is
// appended; on an error none of the batch's records is in the store, and
// what a short write left of the append is a torn tail, which the next
// lock holder cuts back to the whole records before it.
func (s *Store) PutBatch(keys []string, perfs []float64) error {
	if len(keys) != len(perfs) {
		return fmt.Errorf("cas: %d keys for %d values", len(keys), len(perfs))
	}
	size := 0
	for _, key := range keys {
		if key == "" || len(key) > maxKeyLen {
			return fmt.Errorf("cas: invalid key length %d", len(key))
		}
		size += recordOverhead + len(key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.allKnownLocked(keys) {
		return nil
	}
	if err := wal.LockEx(s.lock); err != nil {
		return fmt.Errorf("cas: locking: %w", err)
	}
	defer wal.Unlock(s.lock)
	// Under the exclusive lock: absorb peers' appends (some keys may have
	// landed already), and cut any crash-torn tail.
	if err := s.catchUpExclusive(); err != nil {
		return err
	}
	// A new key becomes pending as its record is encoded, which skips its
	// repeats later in the batch; a failed append takes it out again.
	recs := make([]byte, 0, size)
	n := len(s.unsynced)
	for i, key := range keys {
		if _, ok := s.index[key]; ok || s.isPendingLocked(key) {
			continue
		}
		s.pending[key] = perfs[i]
		s.unsynced = append(s.unsynced, key)
		recs = appendRecord(recs, key, perfs[i])
	}
	added := s.unsynced[n:]
	if len(added) == 0 {
		return nil
	}
	if err := s.seg.Append(recs); err != nil {
		for _, key := range added {
			delete(s.pending, key)
		}
		s.unsynced = s.unsynced[:n]
		return fmt.Errorf("cas: appending %d records: %w", len(added), err)
	}
	s.scanned += int64(len(recs))
	s.appends++
	if !s.syncing {
		s.syncing = true
		go s.syncer()
	}
	return nil
}

// syncer runs fsyncs until every append is settled, each one covering
// every batch appended before it began. A success moves the records it
// covered from pending into the index; a failure drops them, and the
// wal.File fails every later append. The syncer holds s.mu except while
// it fsyncs, and PutBatch starts it only when none is running.
func (s *Store) syncer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.settled < s.appends {
		target, keys := s.appends, s.unsynced
		s.unsynced = nil
		s.mu.Unlock()
		err := s.seg.Sync()
		s.mu.Lock()
		for _, key := range keys {
			if err == nil {
				s.index[key] = s.pending[key]
			}
			delete(s.pending, key)
		}
		if err != nil && s.syncErr == nil {
			s.syncErr = fmt.Errorf("cas: syncing %d records: %w", len(keys), err)
		}
		s.settled = target
		s.settledCond.Broadcast()
	}
	s.syncing = false
	s.settledCond.Broadcast()
}

// Sync blocks until every record appended before the call is durable or
// its fsync has failed, and returns the first fsync failure since the
// previous Sync or Close.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for target := s.appends; s.settled < target; {
		s.settledCond.Wait()
	}
	err := s.syncErr
	s.syncErr = nil
	return err
}

// allKnownLocked reports whether every key is in the index already or
// waiting for its fsync. Caller holds s.mu.
func (s *Store) allKnownLocked(keys []string) bool {
	for _, key := range keys {
		if _, ok := s.index[key]; !ok && !s.isPendingLocked(key) {
			return false
		}
	}
	return true
}

// recordOverhead is a record's length and CRC prefix plus its perf.
const recordOverhead = 16

// appendRecord appends key's record, laid out as the package comment
// shows, to dst.
func appendRecord(dst []byte, key string, perf float64) []byte {
	off := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(key)))
	dst = append(dst, 0, 0, 0, 0) // the CRC, once the payload is in
	dst = append(dst, key...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(perf))
	binary.LittleEndian.PutUint32(dst[off+4:], crc32.ChecksumIEEE(dst[off+8:]))
	return dst
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

// Close waits for the syncer to settle every append, then releases the
// store's files. It returns the first fsync failure no Sync has returned,
// joined with any failure to close. Closing twice is harmless.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.syncing {
		s.settledCond.Wait()
	}
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncErr
	s.syncErr = nil
	if cerr := errors.Join(s.seg.Close(), s.lock.Close()); cerr != nil {
		err = errors.Join(err, fmt.Errorf("cas: %w", cerr))
	}
	return err
}
