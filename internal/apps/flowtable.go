package apps

import (
	"sync"

	"optassign/internal/netgen"
)

// FlowState classifies a tracked flow, mirroring the flow-record contents
// described for the paper's stateful benchmark (open / safe / malicious).
type FlowState uint8

// Flow states.
const (
	FlowOpen FlowState = iota
	FlowSafe
	FlowMalicious
)

// FlowRecord is the per-flow state kept by stateful packet processing.
type FlowRecord struct {
	Key     netgen.FlowKey
	Packets uint64
	Bytes   uint64
	State   FlowState
}

// flowTableBuckets is the paper's hash table size: 2^16 entries, "sufficient
// to store the records of active flows of a fully-utilized 10Gb link".
const flowTableBuckets = 1 << 16

// flowTableShards is the number of independent bucket locks. Like nProbe's
// table, concurrent processing threads lock only the region they touch.
const flowTableShards = 64

// FlowTable is a fixed-size chained hash table of flow records shared by
// every stateful pipeline instance, with sharded locking. The hash is
// FNV-1a over the 5-tuple, the same family of cheap multiplicative hashes
// used by the nProbe monitor the paper borrows its hash function from.
type FlowTable struct {
	buckets [flowTableBuckets]*flowEntry
	locks   [flowTableShards]sync.Mutex
}

type flowEntry struct {
	rec  FlowRecord
	next *flowEntry
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{} }

// HashFlowKey computes the FNV-1a hash of a 5-tuple.
func HashFlowKey(k netgen.FlowKey) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime32
	}
	for shift := 24; shift >= 0; shift -= 8 {
		mix(byte(k.SrcIP >> shift))
	}
	for shift := 24; shift >= 0; shift -= 8 {
		mix(byte(k.DstIP >> shift))
	}
	mix(byte(k.SrcPort >> 8))
	mix(byte(k.SrcPort))
	mix(byte(k.DstPort >> 8))
	mix(byte(k.DstPort))
	mix(k.Proto)
	// Final fold: bucket selection masks to the low 16 bits, so push the
	// high-bit entropy down before the caller truncates.
	return h ^ (h >> 16)
}

// Update locks the key's bucket region, then creates or updates the flow
// record (the lock-read-update step of §4.3's stateful benchmark). It
// returns whether the flow is new and the record's packet count after the
// update.
func (t *FlowTable) Update(key netgen.FlowKey, bytes int, state FlowState) (isNew bool, packets uint64) {
	b := HashFlowKey(key) % flowTableBuckets
	shard := b % flowTableShards
	t.locks[shard].Lock()
	defer t.locks[shard].Unlock()

	for e := t.buckets[b]; e != nil; e = e.next {
		if e.rec.Key == key {
			e.rec.Packets++
			e.rec.Bytes += uint64(bytes)
			if state == FlowMalicious {
				e.rec.State = FlowMalicious
			} else if e.rec.State == FlowOpen && e.rec.Packets >= 3 {
				// A few well-formed packets promote the flow to safe.
				e.rec.State = FlowSafe
			}
			return false, e.rec.Packets
		}
	}
	t.buckets[b] = &flowEntry{
		rec:  FlowRecord{Key: key, Packets: 1, Bytes: uint64(bytes), State: state},
		next: t.buckets[b],
	}
	return true, 1
}
