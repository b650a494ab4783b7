package remote

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"optassign/internal/assign"
	"optassign/internal/obs"
	"optassign/internal/raceflag"
)

// loopbackClient dials a testbed server over loopback TCP (24 tasks) and
// returns the client and a valid assignment for it.
func loopbackClient(tb testing.TB, metrics *ClientMetrics) (*Client, assign.Assignment) {
	tb.Helper()
	_, addr, shutdown := startServer(tb)
	tb.Cleanup(shutdown)
	client, err := DialConfig(ClientConfig{
		Dial:    func() (net.Conn, error) { return net.Dial("tcp", addr) },
		Metrics: metrics,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { client.Close() })
	return client, validAssignmentFor(client.Tasks())
}

var roundTripPerf float64

// BenchmarkRoundTrip is one measurement over loopback TCP: the request
// line out, the server's solve, the response line back, under a
// cancellable context as a campaign's.
func BenchmarkRoundTrip(b *testing.B) {
	client, a := loopbackClient(b, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perf, err := client.MeasureContext(ctx, a)
		if err != nil {
			b.Fatal(err)
		}
		roundTripPerf = perf
	}
}

// TestRoundTripAllocBudget pins the allocations of one loopback round
// trip, both ends together: the server's fresh ctx for the runner, the
// cancellable context's watcher and the runtime's network poller.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const budget = 5
	client, a := loopbackClient(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := testing.AllocsPerRun(500, func() {
		if _, err := client.MeasureContext(ctx, a); err != nil {
			t.Fatal(err)
		}
	})
	if n > budget {
		t.Fatalf("a round trip allocates %v times, budget %d", n, budget)
	}
	if client.fr.dec != nil {
		t.Fatal("the client's responses left the fast path")
	}
}

// TestClientCancelRaceSparesNextCall races a context's cancellation with
// the completion of the call it governs, over and over: each cancel is
// timed to land about one round trip after the call starts. The cancelled
// call may fail and poison its stream; the call after it, under a live
// context, must succeed without a poisoning: a cancelled call's watcher
// may not trip the connection the next caller uses.
func TestClientCancelRaceSparesNextCall(t *testing.T) {
	m := NewClientMetrics(obs.NewRegistry())
	client, a := loopbackClient(t, m)
	rounds := 3000
	if raceflag.Enabled || testing.Short() {
		rounds = 1000
	}
	start := time.Now()
	for i := 0; i < 100; i++ {
		if _, err := client.MeasureContext(context.Background(), a); err != nil {
			t.Fatal(err)
		}
	}
	rtt := time.Since(start) / 100
	rng := rand.New(rand.NewSource(1))
	bad := 0
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(time.Duration(float64(rtt)*(0.5+rng.Float64())), cancel)
		client.MeasureContext(ctx, a) // may fail: its context is cancelled
		timer.Stop()
		cancel()

		live, stop := context.WithCancel(context.Background())
		before := m.StreamPoisonings.Value()
		_, err := client.MeasureContext(live, a)
		stop()
		if err != nil || m.StreamPoisonings.Value() != before {
			bad++
			t.Logf("round %d: live call: %v", i, err)
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d calls under a live context failed or poisoned the stream", bad, rounds)
	}
}
