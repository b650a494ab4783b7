package cas

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"testing"
)

// refSegment is the record format read straight from the layout in the
// package comment: records from the header on, up to the first one whose
// length or CRC fails, the first value of each key kept. It returns the
// index and the length of the valid prefix.
func refSegment(seg []byte) (map[string]uint64, int) {
	idx := make(map[string]uint64)
	off := len(header)
	for len(seg)-off >= 8 {
		keyLen := int(binary.LittleEndian.Uint32(seg[off:]))
		crc := binary.LittleEndian.Uint32(seg[off+4:])
		if keyLen == 0 || keyLen > maxKeyLen || len(seg)-off-8 < keyLen+8 {
			break
		}
		payload := seg[off+8 : off+16+keyLen]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		if _, ok := idx[string(payload[:keyLen])]; !ok {
			idx[string(payload[:keyLen])] = binary.LittleEndian.Uint64(payload[keyLen:])
		}
		off += 16 + keyLen
	}
	return idx, off
}

// FuzzStoreSegment opens a store over arbitrary segment bytes: Open must
// not panic, must refuse a segment without the header, must index exactly
// the CRC-valid records before the first invalid one (bit for bit) and
// cut the rest, and a second Open over the cut segment must change
// nothing.
func FuzzStoreSegment(f *testing.F) {
	rec := func(key string, perf float64) []byte {
		r := make([]byte, 16+len(key))
		binary.LittleEndian.PutUint32(r, uint32(len(key)))
		copy(r[8:], key)
		binary.LittleEndian.PutUint64(r[8+len(key):], math.Float64bits(perf))
		binary.LittleEndian.PutUint32(r[4:], crc32.ChecksumIEEE(r[8:]))
		return r
	}
	valid := append(append(append([]byte(nil), header...), rec("a", 1.5)...), rec("bb", -0.0)...)
	f.Add([]byte{})
	f.Add(append([]byte(nil), header...))
	f.Add(valid)
	f.Add(append(append([]byte(nil), valid...), rec("a", 9)...))
	f.Add(append(append([]byte(nil), valid...), rec("ccc", math.NaN())[:11]...))
	f.Add(append(append([]byte(nil), valid...), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4))
	f.Add([]byte("OCAS\x02\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, seg []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if len(seg) > 0 && (len(seg) < len(header) || !bytes.Equal(seg[:len(header)], header)) {
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a segment without the header")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		want, n := refSegment(append(append([]byte(nil), header...), seg[min(len(seg), len(header)):]...))
		check := func(s *Store) {
			t.Helper()
			if len(s.index) != len(want) {
				t.Fatalf("indexed %d keys, want %d", len(s.index), len(want))
			}
			for k, bits := range want {
				if got, ok := s.index[k]; !ok || math.Float64bits(got) != bits {
					t.Fatalf("key %q: indexed %v (%v), want bits %#x", k, got, ok, bits)
				}
			}
			if s.Bytes() != int64(n) {
				t.Fatalf("validated %d bytes, want %d", s.Bytes(), n)
			}
		}
		check(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		cut, err := os.ReadFile(segPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(cut) != n {
			t.Fatalf("segment holds %d bytes after Open, want the %d valid ones", len(cut), n)
		}

		s, err = Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer s.Close()
		check(s)
		again, err := os.ReadFile(segPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, cut) {
			t.Fatal("second Open changed the segment")
		}
	})
}
