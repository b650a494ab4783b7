package apps

import (
	"strconv"

	"optassign/internal/netgen"
	"optassign/internal/proc"
)

// AnalyzerApp is the packet-analyzer benchmark (§4.3): it decodes every
// packet that passes the NIU and logs MAC addresses, TTL, the L3 protocol,
// IP addresses and port numbers — the exact field set the paper lists — to
// an in-memory log ring. It logs all traffic, the configuration used in the
// paper's experiments.
type AnalyzerApp struct{}

// NewAnalyzer builds the analyzer benchmark.
func NewAnalyzer() *AnalyzerApp { return &AnalyzerApp{} }

// Name implements App.
func (a *AnalyzerApp) Name() string { return "Packet-analyzer" }

// NewPipeline implements App.
func (a *AnalyzerApp) NewPipeline() Pipeline {
	return Pipeline{
		R: &ReceiveThread{},
		P: &analyzerProcess{ring: make([]byte, 1<<16)},
		T: &TransmitThread{},
	}
}

// MeanDemands implements App.
func (a *AnalyzerApp) MeanDemands() [NumStages]proc.Demand {
	return [NumStages]proc.Demand{receiveDemand(), analyzerDemand(), transmitDemand()}
}

func analyzerDemand() proc.Demand {
	var d proc.Demand
	d.Serial = 40
	d.Res[proc.IFU] = 60
	d.Res[proc.IEU] = 700
	d.Res[proc.LSU] = 390
	d.Res[proc.L1D] = 170
	d.Res[proc.TLB] = 20
	d.Res[proc.L2] = 10
	d.Res[proc.MEM] = 0
	d.Res[proc.XBAR] = 10
	return d
}

// analyzerProcess is the P thread: decode, format, log.
type analyzerProcess struct {
	ring     []byte // log ring buffer
	head     int
	Logged   uint64
	Errors   uint64
	lastLine []byte // most recent log line, exposed for tests
}

// Name implements Thread.
func (p *analyzerProcess) Name() string { return "Packet-analyzer/P" }

// Process implements Thread.
func (p *analyzerProcess) Process(pkt netgen.Packet) proc.Demand {
	d := analyzerDemand()
	h, err := pkt.Decode()
	if err != nil {
		p.Errors++
		return d
	}
	p.Logged++
	p.lastLine = formatLogLine(p.lastLine[:0], h)
	p.writeRing(p.lastLine)
	return d
}

// formatLogLine renders the paper's field set without fmt (Netra DPS
// threads avoid heavyweight runtime services).
func formatLogLine(buf []byte, h netgen.Header) []byte {
	buf = appendMAC(buf, h.SrcMAC)
	buf = append(buf, ' ')
	buf = appendMAC(buf, h.DstMAC)
	buf = append(buf, " ttl="...)
	buf = strconv.AppendUint(buf, uint64(h.TTL), 10)
	buf = append(buf, " proto="...)
	buf = strconv.AppendUint(buf, uint64(h.Proto), 10)
	buf = append(buf, ' ')
	buf = append(buf, netgen.IPString(h.SrcIP)...)
	buf = append(buf, ':')
	buf = strconv.AppendUint(buf, uint64(h.SrcPort), 10)
	buf = append(buf, " > "...)
	buf = append(buf, netgen.IPString(h.DstIP)...)
	buf = append(buf, ':')
	buf = strconv.AppendUint(buf, uint64(h.DstPort), 10)
	buf = append(buf, '\n')
	return buf
}

const hexDigits = "0123456789abcdef"

func appendMAC(buf []byte, mac [6]byte) []byte {
	for i, b := range mac {
		if i > 0 {
			buf = append(buf, ':')
		}
		buf = append(buf, hexDigits[b>>4], hexDigits[b&0xf])
	}
	return buf
}

// writeRing copies a line into the ring buffer, wrapping at the end.
func (p *analyzerProcess) writeRing(line []byte) {
	for len(line) > 0 {
		n := copy(p.ring[p.head:], line)
		p.head += n
		if p.head == len(p.ring) {
			p.head = 0
		}
		line = line[n:]
	}
}
