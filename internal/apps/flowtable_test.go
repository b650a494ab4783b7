package apps

import (
	"math/rand"
	"sync"
	"testing"

	"optassign/internal/netgen"
)

// Lookup returns a copy of the record for key, if present.
func (t *FlowTable) Lookup(key netgen.FlowKey) (FlowRecord, bool) {
	b := HashFlowKey(key) % flowTableBuckets
	shard := b % flowTableShards
	t.locks[shard].Lock()
	defer t.locks[shard].Unlock()
	for e := t.buckets[b]; e != nil; e = e.next {
		if e.rec.Key == key {
			return e.rec, true
		}
	}
	return FlowRecord{}, false
}

// Flows returns the number of distinct flows ever inserted: the table
// never drops a record.
func (t *FlowTable) Flows() int {
	total := 0
	for b := range t.buckets {
		shard := b % flowTableShards
		t.locks[shard].Lock()
		for e := t.buckets[b]; e != nil; e = e.next {
			total++
		}
		t.locks[shard].Unlock()
	}
	return total
}

// Table returns the app's route table.
func (a *IPFwdApp) Table() *RouteTable { return a.table }

// Table returns the flow table the app's instances share.
func (a *StatefulApp) Table() *FlowTable { return a.table }

func mkKey(i int) netgen.FlowKey {
	return netgen.FlowKey{
		SrcIP: uint32(0x0a000000 + i), DstIP: 0xc0a80001,
		SrcPort: uint16(1000 + i%60000), DstPort: 80, Proto: netgen.ProtoTCP,
	}
}

func TestFlowTableBasic(t *testing.T) {
	ft := NewFlowTable()
	k := mkKey(1)
	isNew, pkts := ft.Update(k, 100, FlowOpen)
	if !isNew || pkts != 1 {
		t.Errorf("first update: new=%v pkts=%d", isNew, pkts)
	}
	isNew, pkts = ft.Update(k, 50, FlowOpen)
	if isNew || pkts != 2 {
		t.Errorf("second update: new=%v pkts=%d", isNew, pkts)
	}
	rec, ok := ft.Lookup(k)
	if !ok || rec.Packets != 2 || rec.Bytes != 150 {
		t.Errorf("lookup: %+v ok=%v", rec, ok)
	}
	if _, ok := ft.Lookup(mkKey(2)); ok {
		t.Error("lookup of absent flow succeeded")
	}
	if ft.Flows() != 1 {
		t.Errorf("Flows = %d", ft.Flows())
	}
}

func TestFlowTableStateTransitions(t *testing.T) {
	ft := NewFlowTable()
	k := mkKey(7)
	ft.Update(k, 10, FlowOpen)
	rec, _ := ft.Lookup(k)
	if rec.State != FlowOpen {
		t.Errorf("state after 1 pkt = %v", rec.State)
	}
	ft.Update(k, 10, FlowOpen)
	ft.Update(k, 10, FlowOpen) // third packet promotes to safe
	rec, _ = ft.Lookup(k)
	if rec.State != FlowSafe {
		t.Errorf("state after 3 pkts = %v", rec.State)
	}
	ft.Update(k, 10, FlowMalicious) // malicious sticks
	ft.Update(k, 10, FlowOpen)
	rec, _ = ft.Lookup(k)
	if rec.State != FlowMalicious {
		t.Errorf("state after malicious = %v", rec.State)
	}
}

func TestFlowTableManyFlowsAndCollisions(t *testing.T) {
	ft := NewFlowTable()
	const n = 200000 // > 2^16 buckets: chains must handle collisions
	for i := 0; i < n; i++ {
		ft.Update(mkKey(i), 1, FlowOpen)
	}
	if ft.Flows() != n {
		t.Errorf("Flows = %d, want %d", ft.Flows(), n)
	}
	// Every flow is still retrievable with the right count.
	for i := 0; i < n; i += 9973 {
		rec, ok := ft.Lookup(mkKey(i))
		if !ok || rec.Packets != 1 {
			t.Fatalf("flow %d: %+v ok=%v", i, rec, ok)
		}
	}
}

func TestFlowTableConcurrentUpdates(t *testing.T) {
	ft := NewFlowTable()
	const (
		workers = 8
		flows   = 512
		perW    = 4000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perW; i++ {
				ft.Update(mkKey(rng.Intn(flows)), 1, FlowOpen)
			}
		}(int64(w))
	}
	wg.Wait()
	if ft.Flows() > flows {
		t.Errorf("Flows = %d, want <= %d", ft.Flows(), flows)
	}
	// Total packet count across all flows must equal all updates.
	var total uint64
	for i := 0; i < flows; i++ {
		if rec, ok := ft.Lookup(mkKey(i)); ok {
			total += rec.Packets
		}
	}
	if total != workers*perW {
		t.Errorf("total packets = %d, want %d", total, workers*perW)
	}
}

func TestHashFlowKeyDisperses(t *testing.T) {
	// Nearby keys should not collide systematically.
	buckets := make(map[uint32]int)
	for i := 0; i < 10000; i++ {
		buckets[HashFlowKey(mkKey(i))%flowTableBuckets]++
	}
	if len(buckets) < 8000 {
		t.Errorf("10000 sequential keys landed in only %d buckets", len(buckets))
	}
	// Deterministic.
	if HashFlowKey(mkKey(3)) != HashFlowKey(mkKey(3)) {
		t.Error("hash not deterministic")
	}
}
