package netgen

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuildDecodeRoundTripTCP(t *testing.T) {
	payload := []byte("hello world payload")
	pkt := Build([6]byte{1}, [6]byte{2}, 0x0a000001, 0xc0a80001, ProtoTCP, 64, 1234, 80, payload)
	h, err := pkt.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if h.SrcIP != 0x0a000001 || h.DstIP != 0xc0a80001 {
		t.Errorf("IPs: %x %x", h.SrcIP, h.DstIP)
	}
	if h.SrcPort != 1234 || h.DstPort != 80 || h.Proto != ProtoTCP || h.TTL != 64 {
		t.Errorf("header: %+v", h)
	}
	if got := pkt.Payload(); !bytes.Equal(got, payload) {
		t.Errorf("payload = %q", got)
	}
	if h.Length != len(pkt.Raw) {
		t.Errorf("length %d != raw %d", h.Length, len(pkt.Raw))
	}
	if !pkt.VerifyIPv4Checksum() {
		t.Error("bad IPv4 checksum on built packet")
	}
}

func TestBuildDecodeRoundTripUDP(t *testing.T) {
	payload := []byte{1, 2, 3}
	pkt := Build([6]byte{1}, [6]byte{2}, 1, 2, ProtoUDP, 10, 53, 5353, payload)
	h, err := pkt.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if h.Proto != ProtoUDP || h.SrcPort != 53 || h.DstPort != 5353 {
		t.Errorf("header: %+v", h)
	}
	if got := pkt.Payload(); !bytes.Equal(got, payload) {
		t.Errorf("payload = %v", got)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := (Packet{Raw: make([]byte, 10)}).Decode(); !errors.Is(err, ErrTruncated) {
		t.Errorf("short packet: %v", err)
	}
	// Non-IPv4 ethertype.
	pkt := Build([6]byte{}, [6]byte{}, 1, 2, ProtoTCP, 64, 1, 2, nil)
	raw := append([]byte(nil), pkt.Raw...)
	raw[12] = 0x86
	raw[13] = 0xdd // IPv6
	if _, err := (Packet{Raw: raw}).Decode(); !errors.Is(err, ErrNotIPv4) {
		t.Errorf("ethertype: %v", err)
	}
	// Unsupported transport.
	raw = append([]byte(nil), pkt.Raw...)
	raw[EthernetHeaderLen+9] = 47 // GRE
	if _, err := (Packet{Raw: raw}).Decode(); !errors.Is(err, ErrUnsupported) {
		t.Errorf("proto: %v", err)
	}
	// Corrupted version nibble.
	raw = append([]byte(nil), pkt.Raw...)
	raw[EthernetHeaderLen] = 0x55
	if _, err := (Packet{Raw: raw}).Decode(); !errors.Is(err, ErrNotIPv4) {
		t.Errorf("version: %v", err)
	}
	if (Packet{Raw: raw}).Payload() != nil {
		t.Error("payload of broken packet should be nil")
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	pkt := Build([6]byte{}, [6]byte{}, 0x01020304, 0x05060708, ProtoTCP, 64, 1, 2, []byte("x"))
	if !pkt.VerifyIPv4Checksum() {
		t.Fatal("fresh packet fails checksum")
	}
	pkt.Raw[EthernetHeaderLen+12]++ // corrupt source IP
	if pkt.VerifyIPv4Checksum() {
		t.Error("corruption not detected")
	}
	if (Packet{Raw: []byte{1}}).VerifyIPv4Checksum() {
		t.Error("truncated packet should fail checksum")
	}
}

func TestProfileValidate(t *testing.T) {
	if err := DefaultProfile().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Profile{
		{Flows: 0, PayloadMax: 10},
		{Flows: 1, PayloadMin: -1, PayloadMax: 10},
		{Flows: 1, PayloadMin: 20, PayloadMax: 10},
		{Flows: 1, PayloadMax: 10, TCPFraction: 2},
		{Flows: 1, PayloadMax: 10, KeywordRate: -0.1},
		{Flows: 1, PayloadMax: 10, ZipfS: 0.5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad profile %d accepted", i)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p := DefaultProfile()
	g1, err := NewGenerator(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if !bytes.Equal(a.Raw, b.Raw) {
			t.Fatalf("packet %d differs between identical generators", i)
		}
	}
	g3, err := NewGenerator(p, 43)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(g1.Next().Raw, g3.Next().Raw) {
		t.Error("different seeds produced identical packets")
	}
}

func TestGeneratorPacketsAreWellFormed(t *testing.T) {
	g, err := NewGenerator(DefaultProfile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	flowSet := make(map[FlowKey]bool)
	for i := 0; i < 2000; i++ {
		pkt := g.Next()
		h, err := pkt.Decode()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !pkt.VerifyIPv4Checksum() {
			t.Fatalf("packet %d: bad checksum", i)
		}
		pl := pkt.Payload()
		if len(pl) < 64 || len(pl) > 800 {
			t.Fatalf("packet %d: payload %d outside profile range", i, len(pl))
		}
		if h.Proto != ProtoTCP && h.Proto != ProtoUDP {
			t.Fatalf("packet %d: proto %d", i, h.Proto)
		}
		flowSet[h.Key()] = true
	}
	// Zipf reuse: far fewer distinct flows than packets, far more than one.
	if len(flowSet) < 10 || len(flowSet) >= 2000 {
		t.Errorf("distinct flows = %d, want Zipf-style reuse", len(flowSet))
	}
}

func TestGeneratorKeywordInjection(t *testing.T) {
	p := DefaultProfile()
	p.KeywordRate = 1.0
	g, err := NewGenerator(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for i := 0; i < 200; i++ {
		pl := string(g.Next().Payload())
		for _, kw := range p.Keywords {
			if strings.Contains(pl, kw) {
				found++
				break
			}
		}
	}
	if found < 195 {
		t.Errorf("keywords found in %d/200 packets at rate 1.0", found)
	}
	// Rate 0: filler is lowercase letters, keywords are longer words —
	// accidental hits possible but should be rare.
	p.KeywordRate = 0
	g, err = NewGenerator(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	found = 0
	for i := 0; i < 200; i++ {
		pl := string(g.Next().Payload())
		for _, kw := range p.Keywords {
			if strings.Contains(pl, kw) {
				found++
				break
			}
		}
	}
	if found > 5 {
		t.Errorf("keywords found in %d/200 packets at rate 0", found)
	}
}

func TestGeneratorUniformFlowsWhenZipfDisabled(t *testing.T) {
	p := DefaultProfile()
	p.ZipfS = 0
	p.Flows = 16
	g, err := NewGenerator(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[FlowKey]int)
	for i := 0; i < 4800; i++ {
		h, err := g.Next().Decode()
		if err != nil {
			t.Fatal(err)
		}
		counts[h.Key()]++
	}
	if len(counts) != 16 {
		t.Fatalf("flows = %d, want 16", len(counts))
	}
	for k, c := range counts {
		if c < 150 || c > 450 { // expectation 300
			t.Errorf("flow %+v count %d far from uniform", k, c)
		}
	}
}

func TestIPString(t *testing.T) {
	if got := IPString(0x0a000001); got != "10.0.0.1" {
		t.Errorf("IPString = %q", got)
	}
}

func TestMeanPayload(t *testing.T) {
	p := Profile{PayloadMin: 100, PayloadMax: 300}
	if p.MeanPayload() != 200 {
		t.Errorf("MeanPayload = %v", p.MeanPayload())
	}
}

func TestBuildRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, ttl uint8, useTCP bool, payload []byte) bool {
		proto := uint8(ProtoUDP)
		if useTCP {
			proto = ProtoTCP
		}
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		pkt := Build([6]byte{1}, [6]byte{2}, src, dst, proto, ttl, sp, dp, payload)
		h, err := pkt.Decode()
		if err != nil {
			return false
		}
		return h.SrcIP == src && h.DstIP == dst && h.SrcPort == sp && h.DstPort == dp &&
			h.TTL == ttl && h.Proto == proto && bytes.Equal(pkt.Payload(), payload) &&
			pkt.VerifyIPv4Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
