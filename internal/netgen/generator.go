package netgen

import (
	"fmt"
	"math/rand"
)

// Profile configures the synthetic traffic mix.
type Profile struct {
	Flows       int      // number of distinct 5-tuple flows
	ZipfS       float64  // Zipf skew over flows (>1); 0 disables skew
	PayloadMin  int      // smallest payload in bytes
	PayloadMax  int      // largest payload in bytes (inclusive)
	TCPFraction float64  // fraction of flows using TCP (rest UDP)
	Keywords    []string // strings occasionally planted into payloads
	KeywordRate float64  // probability a packet carries a planted keyword
}

// DefaultProfile is the traffic mix used by the case study: 4096 flows with
// mild Zipf skew, payloads of 64–800 bytes, 80% TCP, and a Snort-style
// keyword planted in 10% of packets.
func DefaultProfile() Profile {
	return Profile{
		Flows:       4096,
		ZipfS:       1.2,
		PayloadMin:  64,
		PayloadMax:  800,
		TCPFraction: 0.8,
		Keywords:    DoSKeywords(),
		KeywordRate: 0.10,
	}
}

// MeanPayload returns the expected payload size in bytes.
func (p Profile) MeanPayload() float64 {
	return float64(p.PayloadMin+p.PayloadMax) / 2
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	switch {
	case p.Flows < 1:
		return fmt.Errorf("netgen: need at least one flow, got %d", p.Flows)
	case p.PayloadMin < 0 || p.PayloadMax < p.PayloadMin:
		return fmt.Errorf("netgen: bad payload range [%d, %d]", p.PayloadMin, p.PayloadMax)
	case p.TCPFraction < 0 || p.TCPFraction > 1:
		return fmt.Errorf("netgen: TCP fraction %v outside [0,1]", p.TCPFraction)
	case p.KeywordRate < 0 || p.KeywordRate > 1:
		return fmt.Errorf("netgen: keyword rate %v outside [0,1]", p.KeywordRate)
	case p.ZipfS != 0 && p.ZipfS <= 1:
		return fmt.Errorf("netgen: Zipf skew must be > 1 (or 0 to disable), got %v", p.ZipfS)
	}
	return nil
}

// flowSpec is one generated flow's immutable 5-tuple.
type flowSpec struct {
	srcIP, dstIP     uint32
	srcPort, dstPort uint16
	proto            uint8
}

// Generator produces a deterministic packet stream for a Profile.
type Generator struct {
	profile Profile
	rng     *rand.Rand
	zipf    *rand.Zipf
	flows   []flowSpec
	srcMAC  [6]byte
	dstMAC  [6]byte
}

// NewGenerator builds a generator; the same (profile, seed) pair always
// yields the same packet stream.
func NewGenerator(profile Profile, seed int64) (*Generator, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{
		profile: profile,
		rng:     rng,
		srcMAC:  [6]byte{0x02, 0x00, 0x5e, 0x10, 0x20, 0x30},
		dstMAC:  [6]byte{0x02, 0x00, 0x5e, 0x40, 0x50, 0x60},
	}
	if profile.ZipfS > 1 && profile.Flows > 1 {
		g.zipf = rand.NewZipf(rng, profile.ZipfS, 1, uint64(profile.Flows-1))
	}
	g.flows = make([]flowSpec, profile.Flows)
	for i := range g.flows {
		proto := uint8(ProtoUDP)
		if rng.Float64() < profile.TCPFraction {
			proto = ProtoTCP
		}
		g.flows[i] = flowSpec{
			srcIP:   0x0a000000 | uint32(rng.Intn(1<<24)), // 10.0.0.0/8
			dstIP:   0xc0a80000 | uint32(rng.Intn(1<<16)), // 192.168.0.0/16
			srcPort: uint16(1024 + rng.Intn(64000)),
			dstPort: uint16(1 + rng.Intn(1024)),
			proto:   proto,
		}
	}
	return g, nil
}

// Next produces the next packet of the stream.
func (g *Generator) Next() Packet {
	fi := 0
	if g.zipf != nil {
		fi = int(g.zipf.Uint64())
	} else if len(g.flows) > 1 {
		fi = g.rng.Intn(len(g.flows))
	}
	f := g.flows[fi]

	size := g.profile.PayloadMin
	if g.profile.PayloadMax > g.profile.PayloadMin {
		size += g.rng.Intn(g.profile.PayloadMax - g.profile.PayloadMin + 1)
	}
	payload := make([]byte, size)
	for i := range payload {
		// Printable-ish filler keeps accidental keyword matches rare.
		payload[i] = byte('a' + g.rng.Intn(26))
	}
	if len(g.profile.Keywords) > 0 && g.rng.Float64() < g.profile.KeywordRate {
		kw := g.profile.Keywords[g.rng.Intn(len(g.profile.Keywords))]
		if len(kw) <= len(payload) {
			off := g.rng.Intn(len(payload) - len(kw) + 1)
			copy(payload[off:], kw)
		}
	}
	ttl := uint8(32 + g.rng.Intn(224))
	return Build(g.srcMAC, g.dstMAC, f.srcIP, f.dstIP, f.proto, ttl, f.srcPort, f.dstPort, payload)
}

// DoSKeywords returns a Snort-style denial-of-service keyword set — the
// role played in the paper by the Snort DoS rules (v2.9) that the
// Aho-Corasick benchmark searched for in packet payloads.
func DoSKeywords() []string {
	return []string{
		"naptha", "synflood", "landattack", "teardrop", "bonk",
		"jolt", "winnuke", "smurf", "fraggle", "pingofdeath",
		"slowloris", "rudy", "sockstress", "xmasscan", "udpstorm",
		"ackflood", "rstflood", "httpflood", "dnsamp", "ntpamp",
	}
}
