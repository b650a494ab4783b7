package apps

import (
	"optassign/internal/netgen"
	"optassign/internal/proc"
)

// StatefulApp is the stateful packet-processing benchmark (§4.3): unlike
// the stateless suite members it keeps information across packets — every
// packet's 5-tuple is hashed into a 2^16-entry flow table whose record is
// locked, read and updated (or created for a new flow). All pipeline
// instances of one StatefulApp share the same table, so the processing
// threads really contend on its locks.
type StatefulApp struct {
	table *FlowTable
}

// NewStateful builds the benchmark with a fresh shared flow table.
func NewStateful() *StatefulApp { return &StatefulApp{table: NewFlowTable()} }

// Name implements App.
func (a *StatefulApp) Name() string { return "Stateful" }

// NewPipeline implements App.
func (a *StatefulApp) NewPipeline() Pipeline {
	return Pipeline{
		R: &ReceiveThread{},
		P: &statefulProcess{app: a},
		T: &TransmitThread{},
	}
}

// MeanDemands implements App.
func (a *StatefulApp) MeanDemands() [NumStages]proc.Demand {
	return [NumStages]proc.Demand{receiveDemand(), statefulDemand(), transmitDemand()}
}

func statefulDemand() proc.Demand {
	var d proc.Demand
	d.Serial = 10
	d.Res[proc.IFU] = 10
	d.Res[proc.IEU] = 800
	d.Res[proc.LSU] = 450
	d.Res[proc.L1D] = 60
	d.Res[proc.TLB] = 20
	d.Res[proc.L2] = 160
	d.Res[proc.MEM] = 80
	d.Res[proc.XBAR] = 10
	return d
}

// statefulProcess is the P thread: extract flow keys, hash, lock, update.
type statefulProcess struct {
	app      *StatefulApp
	Packets  uint64
	NewFlows uint64
	Errors   uint64
}

// Name implements Thread.
func (p *statefulProcess) Name() string { return "Stateful/P" }

// Process implements Thread.
func (p *statefulProcess) Process(pkt netgen.Packet) proc.Demand {
	p.Packets++
	d := statefulDemand()
	h, err := pkt.Decode()
	if err != nil {
		p.Errors++
		return d
	}
	state := FlowOpen
	if h.TTL < 5 {
		// Suspiciously low TTL marks the flow, standing in for the
		// malicious-classification hooks of real monitors.
		state = FlowMalicious
	}
	isNew, _ := p.app.table.Update(h.Key(), len(pkt.Raw), state)
	if isNew {
		p.NewFlows++
	}
	return d
}
