package netdps

import (
	"math/rand"
	"testing"

	"optassign/internal/apps"
	"optassign/internal/assign"
	"optassign/internal/netgen"
)

// TestEveryBenchmarkProcessesRealTraffic is the suite-wide functional
// integration test: every benchmark's pipelines run real generated packets
// through the discrete-event engine, and the per-app functional counters
// confirm the actual algorithms executed (forwarding decisions, log lines,
// automaton matches, flow records).
func TestEveryBenchmarkProcessesRealTraffic(t *testing.T) {
	profile := netgen.DefaultProfile()
	const packets = 600
	for _, app := range append(apps.Suite(profile), apps.NewIPFwd(apps.IPFwdIntAdd), apps.NewIPFwd(apps.IPFwdIntMul)) {
		tb, err := NewTestbed(app, 4, WithProfile(profile))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
		if err != nil {
			t.Fatal(err)
		}
		meas, err := tb.MeasureEngine(a, packets)
		if err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		if meas.PPS <= 0 {
			t.Fatalf("%s: no throughput", app.Name())
		}
		var rx, tx uint64
		for _, pipe := range meas.Pipelines {
			r := pipe.R.(*apps.ReceiveThread)
			tr := pipe.T.(*apps.TransmitThread)
			rx += r.Packets
			tx += tr.Packets
			if r.BadEth != 0 {
				t.Errorf("%s: receive saw %d malformed frames", app.Name(), r.BadEth)
			}
			if tr.BadSum != 0 {
				t.Errorf("%s: transmit saw %d bad checksums", app.Name(), tr.BadSum)
			}
		}
		if rx != 4*packets || tx != 4*packets {
			t.Errorf("%s: rx=%d tx=%d, want %d each", app.Name(), rx, tx, 4*packets)
		}
	}
}

// TestAhoEngineFindsKeywords pins the functional behaviour of the matcher
// under the engine: with keyword injection on, hits must appear.
func TestAhoEngineFindsKeywords(t *testing.T) {
	profile := netgen.DefaultProfile()
	profile.KeywordRate = 0.5
	app := apps.NewAhoCorasick(profile)
	tb, err := NewTestbed(app, 2, WithProfile(profile))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	a, err := assign.RandomPermutation(rng, tb.Machine.Topo, tb.TaskCount())
	if err != nil {
		t.Fatal(err)
	}
	meas, err := tb.MeasureEngine(a, 400)
	if err != nil {
		t.Fatal(err)
	}
	var hits, matches uint64
	for _, pipe := range meas.Pipelines {
		p, ok := pipe.P.(interface {
			MatchStats() (uint64, uint64, uint64)
		})
		if !ok {
			t.Fatal("aho P thread does not expose MatchStats")
		}
		pkts, h, m := p.MatchStats()
		if pkts != 400 {
			t.Errorf("P thread scanned %d packets, want 400", pkts)
		}
		hits += h
		matches += m
	}
	// Half the packets carry a planted keyword: with 800 packets total the
	// engine must have produced a substantial number of real matches.
	if hits < 300 || matches < hits {
		t.Errorf("hits=%d matches=%d across 800 packets at rate 0.5", hits, matches)
	}
}
