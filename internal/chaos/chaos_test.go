package chaos

// The chaos scenario matrix. Every scenario runs a real campaign over a
// real TCP fleet while one disturbance plays out, then asserts the two
// invariants the tentpole promises:
//
//  1. The campaign journal is byte-identical to an undisturbed serial
//     run — kills, partitions, heartbeat loss, drains and late joins are
//     all invisible to the estimator's sample.
//  2. The membership telemetry (pool and fleet gauges) matches the
//     fleet's actual state once the dust settles.
//
// Disturbances trigger on committed-draw counts, so every run hits the
// same campaign phase regardless of machine speed or -race overhead.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"optassign/internal/core"
)

const (
	chaosSeed  = 7
	chaosTasks = 8
)

// baseline computes (once) the undisturbed serial reference journal. Its
// campaign error (e.g. a clean budget exhaustion at MaxSamples) is part
// of the reference: the fleet run must finish the same way.
var baseline struct {
	once  sync.Once
	bytes []byte
	res   core.IterResult
	err   error
}

func serialReference(t *testing.T) ([]byte, core.IterResult, error) {
	t.Helper()
	baseline.once.Do(func() {
		dir := t.TempDir()
		baseline.bytes, baseline.res, baseline.err = SerialBaseline(dir, chaosTasks, CampaignConfig{Seed: chaosSeed})
	})
	if len(baseline.bytes) == 0 {
		t.Fatalf("serial baseline produced no journal (err: %v)", baseline.err)
	}
	return baseline.bytes, baseline.res, baseline.err
}

func newFleet(t *testing.T, members int) (*Fleet, []*Member) {
	t.Helper()
	f, err := NewFleet(FleetConfig{Tasks: chaosTasks})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	ms := make([]*Member, members)
	for i := range ms {
		m, err := f.Join(context.Background(), fmt.Sprintf("member-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	return f, ms
}

// runScenario executes one disturbed campaign and applies the two
// invariant checks; scenario-specific asserts follow at the call site.
func runScenario(t *testing.T, f *Fleet, sched Schedule) {
	t.Helper()
	wantBytes, wantRes, wantErr := serialReference(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, data, err := f.RunCampaign(ctx, t.TempDir(), CampaignConfig{Seed: chaosSeed}, sched)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("fleet campaign ended with %v, serial baseline with %v", err, wantErr)
	}
	if !bytes.Equal(data, wantBytes) {
		t.Fatalf("fleet journal differs from undisturbed serial baseline: %d bytes vs %d",
			len(data), len(wantBytes))
	}
	if res.Samples != wantRes.Samples || !reflect.DeepEqual(res.Best, wantRes.Best) {
		t.Fatalf("fleet result (%d, %v) differs from serial (%d, %v)",
			res.Samples, res.Best, wantRes.Samples, wantRes.Best)
	}
	if err := f.VerifyTelemetry(); err != nil {
		t.Fatalf("telemetry lies: %v", err)
	}
}

// waitUntil polls a condition with a hard deadline — used inside commit
// hooks to sequence a disturbance against fleet reactions.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestChaosUndisturbedFleetMatchesSerial(t *testing.T) {
	f, _ := newFleet(t, 3)
	runScenario(t, f, nil)
	if f.Pool.Size() != 3 {
		t.Fatalf("fleet shrank to %d without any disturbance", f.Pool.Size())
	}
}

func TestChaosServerKilledMidCampaign(t *testing.T) {
	f, ms := newFleet(t, 3)
	victim := ms[1]
	runScenario(t, f, Schedule{
		// Abrupt death at draw 40: in-flight measurements on the victim
		// fail over, the registry evicts the silent member.
		40: func() { go victim.Kill() },
	})
	waitUntil(t, "victim eviction", func() bool { return f.Pool.Size() == 2 })
	if err := f.VerifyTelemetry(); err != nil {
		t.Fatalf("telemetry after kill: %v", err)
	}
	if v := f.FleetMetrics.Leaves.Value(); v < 1 {
		t.Errorf("leaves counter = %v, want >= 1 for the killed server", v)
	}
}

func TestChaosMeasurementPartitionHeals(t *testing.T) {
	f, ms := newFleet(t, 3)
	victim := ms[2]
	runScenario(t, f, Schedule{
		// The victim's measurement plane goes dark at draw 30 — requests
		// into it hang until the per-attempt timeout abandons them — and
		// heals at draw 120. Heartbeats flow throughout, so the member
		// stays in the fleet the whole time.
		30:  func() { victim.PartitionMeasure() },
		120: func() { victim.HealMeasure() },
	})
	if f.Pool.Size() != 3 {
		t.Fatalf("healed fleet has %d members, want 3", f.Pool.Size())
	}
	if got := f.Registry.Members()[victim.Addr()]; got != "active" {
		t.Fatalf("healed member is %q, want active", got)
	}
}

func TestChaosHeartbeatLossSuspectsAndRecovers(t *testing.T) {
	f, ms := newFleet(t, 3)
	victim := ms[0]
	runScenario(t, f, Schedule{
		30: func() {
			// Silence the registration link until the registry marks the
			// member suspect, then heal and hold the campaign's commit
			// stream until it recovers. Measurements keep flowing to the
			// suspect member throughout — suspicion deprioritizes, it
			// does not remove.
			victim.PartitionRegistry()
			waitUntil(t, "suspect", func() bool {
				return f.Registry.Members()[victim.Addr()] == "suspect"
			})
			if got := f.Pool.Members()[victim.Addr()]; got != "suspect" {
				t.Errorf("pool sees %q while registry sees suspect", got)
			}
			if v := f.FleetMetrics.Suspects.Value(); v != 1 {
				t.Errorf("suspects gauge = %v while the member is suspect, want 1", v)
			}
			victim.HealRegistry()
			waitUntil(t, "recovery", func() bool {
				return f.Registry.Members()[victim.Addr()] == "active"
			})
			if v := f.FleetMetrics.Suspects.Value(); v != 0 {
				t.Errorf("suspects gauge = %v after recovery, want 0", v)
			}
		},
	})
	if err := f.VerifyTelemetry(); err != nil {
		t.Fatalf("telemetry after recovery: %v", err)
	}
}

func TestChaosEvictionAndRejoin(t *testing.T) {
	f, ms := newFleet(t, 3)
	victim := ms[1]
	runScenario(t, f, Schedule{
		25: func() {
			// Heartbeat silence past the evict timer: the member is
			// thrown out of the fleet entirely. Healing the link lets its
			// registrant re-announce — eviction is not a death sentence.
			victim.PartitionRegistry()
			waitUntil(t, "eviction", func() bool {
				_, ok := f.Registry.Members()[victim.Addr()]
				return !ok
			})
			victim.HealRegistry()
			waitUntil(t, "rejoin", func() bool {
				return f.Registry.Members()[victim.Addr()] == "active" &&
					f.Pool.Members()[victim.Addr()] == "active"
			})
		},
	})
	if f.Pool.Size() != 3 {
		t.Fatalf("fleet has %d members after rejoin, want 3", f.Pool.Size())
	}
	if v := f.FleetMetrics.Leaves.Value(); v < 1 {
		t.Errorf("leaves counter = %v, want >= 1 for the eviction", v)
	}
	if f.FleetMetrics.Joins.Value() < 4 {
		t.Errorf("joins counter = %v, want >= 4 (3 joins + 1 rejoin)", f.FleetMetrics.Joins.Value())
	}
}

func TestChaosGracefulDrainLosesNothing(t *testing.T) {
	f, ms := newFleet(t, 3)
	victim := ms[2]
	drained := make(chan error, 1)
	runScenario(t, f, Schedule{
		// Drain mid-campaign: the member finishes in-flight work, leaves
		// cleanly, and the journal still matches — the committed stream
		// lost nothing.
		50: func() {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				drained <- victim.Drain(ctx)
			}()
		},
	})
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
	if f.Pool.Size() != 2 {
		t.Fatalf("fleet has %d members after drain, want 2", f.Pool.Size())
	}
	if v := f.FleetMetrics.Drains.Value(); v != 1 {
		t.Errorf("drains counter = %v, want 1", v)
	}
	if err := f.VerifyTelemetry(); err != nil {
		t.Fatalf("telemetry after drain: %v", err)
	}
}

func TestChaosLateJoinersShareTheLoad(t *testing.T) {
	f, ms := newFleet(t, 1)
	_ = ms
	joined := make(chan error, 2)
	runScenario(t, f, Schedule{
		// The campaign starts on a single server; two more register while
		// it runs. Identity verification gates them in, then the pool's
		// work-stealing spreads subsequent draws across all three.
		30: func() {
			for i := 0; i < 2; i++ {
				name := fmt.Sprintf("late-%d", i)
				go func() {
					_, err := f.Join(context.Background(), name)
					joined <- err
				}()
			}
		},
	})
	for i := 0; i < 2; i++ {
		select {
		case err := <-joined:
			if err != nil {
				t.Fatalf("late join: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("late joiner never registered")
		}
	}
	if f.Pool.Size() != 3 {
		t.Fatalf("fleet has %d members after late joins, want 3", f.Pool.Size())
	}
	if v := f.FleetMetrics.Joins.Value(); v != 3 {
		t.Errorf("joins counter = %v, want 3", v)
	}
}

func TestChaosMetricsExpositionTellsTheTruth(t *testing.T) {
	f, _ := newFleet(t, 2)
	runScenario(t, f, nil)
	// The Prometheus exposition — what /metrics serves — must carry the
	// membership series with the live values.
	var buf bytes.Buffer
	if err := f.Obs.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo := buf.String()
	for _, want := range []string{
		"optassign_fleet_members 2",
		"optassign_fleet_suspects 0",
		"optassign_remote_pool_members 2",
		"optassign_fleet_joins_total 2",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
