package apps

import (
	"optassign/internal/netgen"
	"optassign/internal/proc"
)

// AhoCorasickApp is the string-matching benchmark (§4.3): every packet's
// payload is scanned by an Aho-Corasick automaton for a set of
// denial-of-service keywords, as Snort does for its intrusion-detection
// rules. The per-packet cost scales with payload length, so the demand
// model has a per-byte component.
type AhoCorasickApp struct {
	automaton   *Automaton
	meanPayload float64
	keywordRate float64
}

// Per-byte and per-match scanning costs (cycles).
const (
	ahoIEUPerByte  = 1.3
	ahoLSUPerByte  = 0.75
	ahoL1DPerByte  = 0.35
	ahoL2PerByte   = 0.1
	ahoMatchCycles = 40
)

// NewAhoCorasick builds the benchmark for the given traffic profile. The
// profile supplies both the keyword set to search for and the payload-size
// distribution the analytic demand model needs.
func NewAhoCorasick(profile netgen.Profile) *AhoCorasickApp {
	return &AhoCorasickApp{
		automaton:   NewAutomaton(profile.Keywords),
		meanPayload: profile.MeanPayload(),
		keywordRate: profile.KeywordRate,
	}
}

// Name implements App.
func (a *AhoCorasickApp) Name() string { return "Aho-Corasick" }

// NewPipeline implements App.
func (a *AhoCorasickApp) NewPipeline() Pipeline {
	return Pipeline{
		R: &ReceiveThread{},
		P: &ahoProcess{app: a},
		T: &TransmitThread{},
	}
}

// MeanDemands implements App.
func (a *AhoCorasickApp) MeanDemands() [NumStages]proc.Demand {
	d := ahoBaseDemand()
	d.Res[proc.IEU] += ahoIEUPerByte * a.meanPayload
	d.Res[proc.LSU] += ahoLSUPerByte * a.meanPayload
	d.Res[proc.L1D] += ahoL1DPerByte * a.meanPayload
	d.Res[proc.L2] += ahoL2PerByte * a.meanPayload
	// ~one planted keyword per marked packet.
	d.Serial += ahoMatchCycles * a.keywordRate
	return [NumStages]proc.Demand{receiveDemand(), d, transmitDemand()}
}

func ahoBaseDemand() proc.Demand {
	var d proc.Demand
	d.Serial = 40
	d.Res[proc.IFU] = 60
	d.Res[proc.LSU] = 60
	d.Res[proc.L1D] = 60
	return d
}

// ahoProcess is the P thread: scan the payload, count matches.
type ahoProcess struct {
	app     *AhoCorasickApp
	Packets uint64
	Matches uint64
	Hits    uint64 // packets with at least one match
}

// Name implements Thread.
func (p *ahoProcess) Name() string { return "Aho-Corasick/P" }

// MatchStats reports packets scanned, packets with at least one keyword
// occurrence, and total occurrences (integration tests and examples read
// them through the Pipeline).
func (p *ahoProcess) MatchStats() (packets, hits, matches uint64) {
	return p.Packets, p.Hits, p.Matches
}

// Process implements Thread.
func (p *ahoProcess) Process(pkt netgen.Packet) proc.Demand {
	p.Packets++
	payload := pkt.Payload()
	n := p.app.automaton.Search(payload, nil)
	if n > 0 {
		p.Hits++
		p.Matches += uint64(n)
	}
	d := ahoBaseDemand()
	size := float64(len(payload))
	d.Res[proc.IEU] += ahoIEUPerByte * size
	d.Res[proc.LSU] += ahoLSUPerByte * size
	d.Res[proc.L1D] += ahoL1DPerByte * size
	d.Res[proc.L2] += ahoL2PerByte * size
	d.Serial += ahoMatchCycles * float64(n)
	return d
}
