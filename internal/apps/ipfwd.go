package apps

import (
	"encoding/binary"
	"sync"

	"optassign/internal/netgen"
	"optassign/internal/proc"
)

// IPFwd variant selectors (§4.3 and the Figure-1 motivation study).
type IPFwdVariant int

// The four IPFwd variants used in the paper.
const (
	// IPFwdL1 keeps the lookup table small enough to live in the L1 data
	// cache — the best-case memory behaviour.
	IPFwdL1 IPFwdVariant = iota
	// IPFwdMem uses a lookup table far larger than the caches, so lookups
	// continuously access main memory — the worst-case behaviour.
	IPFwdMem
	// IPFwdIntAdd replaces part of the lookup work with integer-add
	// processing (Figure 1's IPFwd-intadd): heavily IEU-bound, so sharing a
	// hardware pipeline hurts a lot.
	IPFwdIntAdd
	// IPFwdIntMul is the integer-multiply sibling (Figure 1's
	// IPFwd-intmul): the long-latency multiplier is private per strand, so
	// most of its time does not contend.
	IPFwdIntMul
)

func (v IPFwdVariant) String() string {
	switch v {
	case IPFwdL1:
		return "IPFwd-L1"
	case IPFwdMem:
		return "IPFwd-Mem"
	case IPFwdIntAdd:
		return "IPFwd-intadd"
	case IPFwdIntMul:
		return "IPFwd-intmul"
	default:
		return "IPFwd(?)"
	}
}

// Route-table sizes: a few hundred routes keep the trie cache-resident
// (IPFwd-L1); a backbone-scale table walks main memory on every lookup
// (IPFwd-Mem). The arithmetic variants use the small table — their P
// threads spend their time computing, not looking up.
const (
	ipfwdL1Routes  = 512
	ipfwdMemRoutes = 1 << 18
)

// IPFwdApp is the IP-forwarding benchmark family.
type IPFwdApp struct {
	variant IPFwdVariant
	table   *RouteTable // longest-prefix-match table, read-only when running
}

// The route tables are immutable after population and identical for every
// app instance of a variant, so they are built once per process.
var (
	ipfwdSmallTable *RouteTable
	ipfwdLargeTable *RouteTable
	ipfwdSmallOnce  sync.Once
	ipfwdLargeOnce  sync.Once
)

func ipfwdTable(variant IPFwdVariant) *RouteTable {
	build := func(routes int, seed int64) *RouteTable {
		t := NewRouteTable()
		if err := t.PopulateRandom(routes, seed); err != nil {
			// PopulateRandom only fails on programming errors (reserved
			// next hops); surface loudly rather than forwarding nothing.
			panic(err)
		}
		return t
	}
	if variant == IPFwdMem {
		ipfwdLargeOnce.Do(func() { ipfwdLargeTable = build(ipfwdMemRoutes, 2012) })
		return ipfwdLargeTable
	}
	ipfwdSmallOnce.Do(func() { ipfwdSmallTable = build(ipfwdL1Routes, 2012) })
	return ipfwdSmallTable
}

// NewIPFwd builds the chosen IPFwd variant. The route table is populated
// deterministically so forwarding decisions are reproducible.
func NewIPFwd(variant IPFwdVariant) *IPFwdApp {
	return &IPFwdApp{variant: variant, table: ipfwdTable(variant)}
}

// Name implements App.
func (a *IPFwdApp) Name() string { return a.variant.String() }

// NewPipeline implements App.
func (a *IPFwdApp) NewPipeline() Pipeline {
	return Pipeline{
		R: &ReceiveThread{},
		P: &ipfwdProcess{app: a},
		T: &TransmitThread{},
	}
}

// MeanDemands implements App.
func (a *IPFwdApp) MeanDemands() [NumStages]proc.Demand {
	return [NumStages]proc.Demand{receiveDemand(), a.processDemand(), transmitDemand()}
}

// processDemand is the calibrated per-packet footprint of the P stage.
func (a *IPFwdApp) processDemand() proc.Demand {
	var d proc.Demand
	switch a.variant {
	case IPFwdL1:
		d.Serial = 20
		d.Res[proc.IFU] = 30
		d.Res[proc.IEU] = 650
		d.Res[proc.LSU] = 360
		d.Res[proc.L1D] = 200
		d.Res[proc.TLB] = 10
		d.Res[proc.L2] = 20
		d.Res[proc.XBAR] = 10
	case IPFwdMem:
		d.Serial = 10
		d.Res[proc.IFU] = 10
		d.Res[proc.IEU] = 800
		d.Res[proc.LSU] = 450
		d.Res[proc.L1D] = 60
		d.Res[proc.TLB] = 10
		d.Res[proc.L2] = 60
		d.Res[proc.MEM] = 200
		d.Res[proc.XBAR] = 10
	case IPFwdIntAdd:
		d.Serial = 50
		d.Res[proc.IFU] = 80
		d.Res[proc.IEU] = 750
		d.Res[proc.LSU] = 180
		d.Res[proc.L1D] = 120
	case IPFwdIntMul:
		d.Serial = 350
		d.Res[proc.IFU] = 80
		d.Res[proc.IEU] = 600
		d.Res[proc.LSU] = 160
		d.Res[proc.L1D] = 120
	}
	return d
}

// ipfwdProcess is the P thread: look up the next hop by destination IP,
// rewrite the destination MAC, decrement the TTL, fix the header checksum.
type ipfwdProcess struct {
	app      *IPFwdApp
	Packets  uint64
	Dropped  uint64 // TTL expired
	checksum uint64 // accumulator defeating dead-code elimination
}

// Name implements Thread.
func (p *ipfwdProcess) Name() string { return p.app.Name() + "/P" }

// NextHop returns the forwarding decision for a destination IP: the next
// hop of the longest matching prefix in the variant's route table. The
// default route guarantees a match.
func (a *IPFwdApp) NextHop(dstIP uint32) uint32 {
	return a.table.Lookup(dstIP)
}

// Process implements Thread.
func (p *ipfwdProcess) Process(pkt netgen.Packet) proc.Demand {
	p.Packets++
	d := p.app.processDemand()
	raw := pkt.Raw
	if len(raw) < netgen.EthernetHeaderLen+netgen.IPv4HeaderLen {
		return d
	}
	ip := raw[netgen.EthernetHeaderLen:]
	dstIP := binary.BigEndian.Uint32(ip[16:20])
	hop := p.app.NextHop(dstIP)

	// Rewrite destination MAC from the next-hop identifier.
	binary.BigEndian.PutUint32(raw[0:4], hop)
	raw[4] = 0x02
	raw[5] = byte(hop >> 7)

	// Forwarding semantics: TTL decrement and checksum fix-up.
	if ip[8] == 0 {
		p.Dropped++
	} else {
		ip[8]--
	}
	binary.BigEndian.PutUint16(ip[10:12], netgen.IPv4Checksum(ip[:netgen.IPv4HeaderLen]))

	// The arithmetic kernels of the Figure-1 variants run over payload
	// words; the sink accumulator keeps the work observable.
	switch p.app.variant {
	case IPFwdIntAdd:
		var acc uint32
		for i := netgen.EthernetHeaderLen + netgen.IPv4HeaderLen; i+4 <= len(raw); i += 4 {
			acc += binary.BigEndian.Uint32(raw[i : i+4])
		}
		p.checksum += uint64(acc)
	case IPFwdIntMul:
		acc := uint32(1)
		for i := netgen.EthernetHeaderLen + netgen.IPv4HeaderLen; i+4 <= len(raw); i += 4 {
			acc *= binary.BigEndian.Uint32(raw[i:i+4]) | 1
		}
		p.checksum += uint64(acc)
	default:
		p.checksum += uint64(hop)
	}
	return d
}
