package apps

import (
	"math"
	"strings"
	"testing"

	"optassign/internal/netgen"
	"optassign/internal/proc"
)

func testGen(t *testing.T, seed int64) *netgen.Generator {
	t.Helper()
	g, err := netgen.NewGenerator(netgen.DefaultProfile(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStageString(t *testing.T) {
	if Receive.String() != "R" || Process.String() != "P" || Transmit.String() != "T" {
		t.Error("stage names")
	}
	if Stage(9).String() == "" {
		t.Error("out-of-range stage name")
	}
}

func TestSuiteComposition(t *testing.T) {
	suite := Suite(netgen.DefaultProfile())
	if len(suite) != 5 {
		t.Fatalf("suite size %d", len(suite))
	}
	names := make(map[string]bool)
	for _, app := range suite {
		names[app.Name()] = true
		p := app.NewPipeline()
		for _, th := range p.Threads() {
			if th == nil || th.Name() == "" {
				t.Errorf("%s: incomplete pipeline", app.Name())
			}
		}
		for s, d := range app.MeanDemands() {
			if d.Base() <= 0 {
				t.Errorf("%s stage %v: non-positive demand", app.Name(), Stage(s))
			}
		}
	}
	for _, want := range []string{"Aho-Corasick", "IPFwd-L1", "IPFwd-Mem", "Packet-analyzer", "Stateful"} {
		if !names[want] {
			t.Errorf("suite missing %s", want)
		}
	}
	for _, name := range []string{"IPFwd-intadd", "IPFwd-intmul"} {
		if app, err := ByName(name, netgen.DefaultProfile()); err != nil || app.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, app, err)
		}
	}
}

func TestIPFwdForwardingSemantics(t *testing.T) {
	app := NewIPFwd(IPFwdL1)
	p := app.NewPipeline()
	gen := testGen(t, 1)
	pkt := gen.Next()
	before, err := pkt.Decode()
	if err != nil {
		t.Fatal(err)
	}
	p.R.Process(pkt)
	p.P.Process(pkt)
	p.T.Process(pkt)
	after, err := pkt.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if after.TTL != before.TTL-1 {
		t.Errorf("TTL %d -> %d, want decrement", before.TTL, after.TTL)
	}
	if !pkt.VerifyIPv4Checksum() {
		t.Error("checksum not fixed after TTL decrement")
	}
	// Destination MAC rewritten to the next hop.
	wantHop := app.NextHop(before.DstIP)
	gotHop := uint32(after.DstMAC[0])<<24 | uint32(after.DstMAC[1])<<16 | uint32(after.DstMAC[2])<<8 | uint32(after.DstMAC[3])
	if gotHop != wantHop {
		t.Errorf("dst MAC hop = %x, want %x", gotHop, wantHop)
	}
	tt := p.T.(*TransmitThread)
	if tt.BadSum != 0 {
		t.Errorf("transmit saw %d bad checksums", tt.BadSum)
	}
}

func TestIPFwdNextHopDeterministic(t *testing.T) {
	a1, a2 := NewIPFwd(IPFwdMem), NewIPFwd(IPFwdMem)
	for ip := uint32(0); ip < 1000; ip += 13 {
		if a1.NextHop(ip) != a2.NextHop(ip) {
			t.Fatal("NextHop differs between identical tables")
		}
	}
}

func TestIPFwdVariantsHaveDistinctProfiles(t *testing.T) {
	l1 := NewIPFwd(IPFwdL1).MeanDemands()[Process]
	mem := NewIPFwd(IPFwdMem).MeanDemands()[Process]
	add := NewIPFwd(IPFwdIntAdd).MeanDemands()[Process]
	mul := NewIPFwd(IPFwdIntMul).MeanDemands()[Process]
	if !(mem.Res[proc.MEM] > l1.Res[proc.MEM]) {
		t.Error("IPFwd-Mem should press memory harder than IPFwd-L1")
	}
	if !(l1.Res[proc.L1D] > mem.Res[proc.L1D]) {
		t.Error("IPFwd-L1 should press L1D harder than IPFwd-Mem")
	}
	if !(add.Res[proc.IEU] > mul.Res[proc.IEU]) {
		t.Error("intadd should press the IEU harder than intmul")
	}
	if !(mul.Serial > add.Serial) {
		t.Error("intmul should have the larger serial (private multiplier) component")
	}
	for _, v := range []IPFwdVariant{IPFwdL1, IPFwdMem, IPFwdIntAdd, IPFwdIntMul, IPFwdVariant(99)} {
		if v.String() == "" {
			t.Error("empty variant name")
		}
	}
}

func TestIPFwdTTLExpiry(t *testing.T) {
	app := NewIPFwd(IPFwdL1)
	pipe := app.NewPipeline()
	pkt := netgen.Build([6]byte{}, [6]byte{}, 1, 2, netgen.ProtoUDP, 0 /* ttl */, 1, 2, []byte("x"))
	pipe.P.Process(pkt)
	if pipe.P.(*ipfwdProcess).Dropped != 1 {
		t.Error("TTL=0 packet not counted as dropped")
	}
}

func TestAnalyzerLogsPaperFields(t *testing.T) {
	app := NewAnalyzer()
	pipe := app.NewPipeline()
	pkt := netgen.Build([6]byte{0xaa, 0xbb, 0, 0, 0, 1}, [6]byte{0xcc, 0xdd, 0, 0, 0, 2},
		0x0a000001, 0xc0a80002, netgen.ProtoTCP, 77, 1234, 443, []byte("payload"))
	pipe.P.Process(pkt)
	ap := pipe.P.(*analyzerProcess)
	if ap.Logged != 1 {
		t.Fatalf("Logged = %d", ap.Logged)
	}
	line := string(ap.lastLine)
	for _, want := range []string{"aa:bb:00:00:00:01", "cc:dd:00:00:00:02", "ttl=77", "proto=6", "10.0.0.1:1234", "192.168.0.2:443"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line %q missing %q", line, want)
		}
	}
}

// TestAnalyzerLogsEveryDecodedPacket checks the paper's configuration:
// every packet that decodes is logged, whatever its protocol or ports,
// and one that does not decode is counted as an error, not logged.
func TestAnalyzerLogsEveryDecodedPacket(t *testing.T) {
	tcp := netgen.Build([6]byte{}, [6]byte{}, 1, 2, netgen.ProtoTCP, 64, 1, 443, nil)
	for _, tc := range []struct {
		name           string
		pkt            netgen.Packet
		logged, errors uint64
		line           string
	}{
		{"tcp", tcp, 1, 0, "proto=6 0.0.0.1:1 > 0.0.0.2:443"},
		{"udp", netgen.Build([6]byte{}, [6]byte{}, 3, 4, netgen.ProtoUDP, 9, 5353, 53, []byte("q")), 1, 0, "ttl=9 proto=17 0.0.0.3:5353 > 0.0.0.4:53"},
		{"truncated", netgen.Packet{Raw: tcp.Raw[:20]}, 0, 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ap := NewAnalyzer().NewPipeline().P.(*analyzerProcess)
			ap.Process(tc.pkt)
			if ap.Logged != tc.logged || ap.Errors != tc.errors {
				t.Fatalf("logged=%d errors=%d, want %d and %d", ap.Logged, ap.Errors, tc.logged, tc.errors)
			}
			if !strings.Contains(string(ap.lastLine), tc.line) {
				t.Errorf("log line %q missing %q", ap.lastLine, tc.line)
			}
		})
	}
}

func TestAnalyzerRingWrap(t *testing.T) {
	app := NewAnalyzer()
	pipe := app.NewPipeline()
	ap := pipe.P.(*analyzerProcess)
	ap.ring = make([]byte, 64) // tiny ring to force wrapping
	gen := testGen(t, 2)
	for i := 0; i < 10; i++ {
		pipe.P.Process(gen.Next())
	}
	if ap.Logged != 10 {
		t.Errorf("Logged = %d", ap.Logged)
	}
	if ap.Errors != 0 {
		t.Errorf("Errors = %d", ap.Errors)
	}
}

func TestAnalyzerBrokenPacket(t *testing.T) {
	pipe := NewAnalyzer().NewPipeline()
	pipe.P.Process(netgen.Packet{Raw: []byte{1, 2, 3}})
	if pipe.P.(*analyzerProcess).Errors != 1 {
		t.Error("decode error not counted")
	}
}

func TestAhoAppCountsPlantedKeywords(t *testing.T) {
	profile := netgen.DefaultProfile()
	profile.KeywordRate = 1.0
	app := NewAhoCorasick(profile)
	pipe := app.NewPipeline()
	gen, err := netgen.NewGenerator(profile, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		pipe.P.Process(gen.Next())
	}
	ap := pipe.P.(*ahoProcess)
	if ap.Packets != n {
		t.Errorf("Packets = %d", ap.Packets)
	}
	// Every packet has a planted keyword; a handful may be overwritten by
	// a longer payload boundary but the vast majority must hit.
	if ap.Hits < n*95/100 {
		t.Errorf("Hits = %d of %d with rate 1.0", ap.Hits, n)
	}
	if ap.Matches < ap.Hits {
		t.Errorf("Matches %d < Hits %d", ap.Matches, ap.Hits)
	}
}

func TestAhoAppDemandScalesWithPayload(t *testing.T) {
	app := NewAhoCorasick(netgen.DefaultProfile())
	pipe := app.NewPipeline()
	small := netgen.Build([6]byte{}, [6]byte{}, 1, 2, netgen.ProtoUDP, 64, 1, 2, make([]byte, 64))
	large := netgen.Build([6]byte{}, [6]byte{}, 1, 2, netgen.ProtoUDP, 64, 1, 2, make([]byte, 1024))
	ds := pipe.P.Process(small)
	dl := pipe.P.Process(large)
	if !(dl.Base() > ds.Base()) {
		t.Errorf("demand should grow with payload: %v vs %v", ds.Base(), dl.Base())
	}
	wantDelta := (ahoIEUPerByte + ahoLSUPerByte + ahoL1DPerByte + ahoL2PerByte) * (1024 - 64)
	if math.Abs((dl.Base()-ds.Base())-wantDelta) > 1 {
		t.Errorf("per-byte delta = %v, want %v", dl.Base()-ds.Base(), wantDelta)
	}
}

func TestStatefulTracksFlows(t *testing.T) {
	app := NewStateful()
	pipe := app.NewPipeline()
	profile := netgen.DefaultProfile()
	profile.Flows = 64
	gen, err := netgen.NewGenerator(profile, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		pipe.P.Process(gen.Next())
	}
	sp := pipe.P.(*statefulProcess)
	if sp.Packets != n || sp.Errors != 0 {
		t.Errorf("packets=%d errors=%d", sp.Packets, sp.Errors)
	}
	flows := app.Table().Flows()
	if flows < 30 || flows > 64 {
		t.Errorf("tracked %d flows, expect <= 64 with Zipf reuse", flows)
	}
	if uint64(flows) != sp.NewFlows {
		t.Errorf("NewFlows %d != table flows %d", sp.NewFlows, flows)
	}
}

func TestStatefulInstancesShareTable(t *testing.T) {
	app := NewStateful()
	p1, p2 := app.NewPipeline(), app.NewPipeline()
	pkt := netgen.Build([6]byte{}, [6]byte{}, 1, 2, netgen.ProtoUDP, 64, 9, 9, []byte("x"))
	p1.P.Process(pkt)
	p2.P.Process(pkt)
	h, _ := pkt.Decode()
	rec, ok := app.Table().Lookup(h.Key())
	if !ok || rec.Packets != 2 {
		t.Errorf("shared table record: %+v ok=%v", rec, ok)
	}
}

func TestStatefulMarksLowTTLMalicious(t *testing.T) {
	app := NewStateful()
	pipe := app.NewPipeline()
	pkt := netgen.Build([6]byte{}, [6]byte{}, 5, 6, netgen.ProtoUDP, 2 /* ttl < 5 */, 7, 8, nil)
	pipe.P.Process(pkt)
	h, _ := pkt.Decode()
	rec, ok := app.Table().Lookup(h.Key())
	if !ok || rec.State != FlowMalicious {
		t.Errorf("record = %+v ok=%v", rec, ok)
	}
}

// TestMeanDemandsMatchObservedDemands is the contract between the analytic
// solver and the event engine: the advertised expectation must track what
// the threads actually report on live traffic.
func TestMeanDemandsMatchObservedDemands(t *testing.T) {
	profile := netgen.DefaultProfile()
	for _, app := range append(Suite(profile), NewIPFwd(IPFwdIntAdd), NewIPFwd(IPFwdIntMul)) {
		gen, err := netgen.NewGenerator(profile, 99)
		if err != nil {
			t.Fatal(err)
		}
		pipe := app.NewPipeline()
		const n = 3000
		var got [NumStages]float64
		for i := 0; i < n; i++ {
			pkt := gen.Next()
			got[Receive] += pipe.R.Process(pkt).Base()
			got[Process] += pipe.P.Process(pkt).Base()
			got[Transmit] += pipe.T.Process(pkt).Base()
		}
		want := app.MeanDemands()
		for s := 0; s < int(NumStages); s++ {
			mean := got[s] / n
			if math.Abs(mean-want[s].Base())/want[s].Base() > 0.03 {
				t.Errorf("%s stage %v: observed mean %.1f, advertised %.1f",
					app.Name(), Stage(s), mean, want[s].Base())
			}
		}
	}
}

func TestReceiveTransmitCounters(t *testing.T) {
	r, tr := &ReceiveThread{}, &TransmitThread{}
	gen := testGen(t, 5)
	for i := 0; i < 10; i++ {
		pkt := gen.Next()
		r.Process(pkt)
		tr.Process(pkt)
	}
	if r.Packets != 10 || tr.Packets != 10 || r.Bytes == 0 || tr.Bytes == 0 {
		t.Errorf("counters: %+v %+v", r, tr)
	}
	if r.BadEth != 0 || tr.BadSum != 0 {
		t.Errorf("spurious errors: %+v %+v", r, tr)
	}
	r.Process(netgen.Packet{Raw: []byte{0}})
	if r.BadEth != 1 {
		t.Error("bad ethernet frame not counted")
	}
}
