package experiments

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
)

// DefaultChaosPlan is the single controller's seeded scenario: an
// access-link flap, a TCAM install-rejection window, control-channel
// loss/severing/delay, and a TOR-controller crash/restart mid-offload.
// All faults clear by 3h/4.
func DefaultChaosPlan(h time.Duration) faults.Plan {
	return faults.Plan{Events: []faults.Event{
		// Window opens before the first decision tick so the very first
		// install attempts are rejected and must retry/give up/re-propose.
		{At: h / 32, Kind: faults.TCAMReject, Target: "tor0", Duration: h / 4, Prob: 1.0},
		{At: h / 4, Kind: faults.LinkFlap, Target: "uplink1", Duration: h / 8, Period: h / 64},
		{At: 3 * h / 8, Kind: faults.PacketLoss, Target: "downlink1", Duration: h / 8, Prob: 0.03},
		// A full severing of server 0's control connection: every demand
		// report and RuleSync in the window is dropped and must be
		// absorbed by the periodic refresh after it lifts.
		{At: h / 2, Kind: faults.ChannelDown, Target: "local0-tor", Duration: h / 8},
		{At: 9 * h / 16, Kind: faults.ChannelDown, Target: "torctl0-switch", Duration: h / 32},
		{At: 5 * h / 8, Kind: faults.ControllerCrash, Target: "torctl0", Duration: h / 16},
		{At: 11 * h / 16, Kind: faults.ChannelDelay, Target: "torctl0-switch", Duration: h / 32, Delay: 2 * time.Millisecond},
	}}
}

// RunChaos runs the fault rig with a single controller (a group of
// one) without leases, under DefaultChaosPlan unless cfg.Plan overrides
// it.
func RunChaos(cfg FaultConfig) (FaultResult, error) {
	if cfg.Plan == nil {
		plan := DefaultChaosPlan(horizonOf(cfg))
		cfg.Plan = &plan
	}
	return runFaults(cfg, core.HAConfig{})
}

// TestChaosInvariants is the acceptance property test: under the seeded
// default plan (link flap + packet loss + TCAM rejection + control-channel
// faults + controller crash/restart mid-offload), (1) no packet is
// blackholed and conservation closes exactly, (2) the capped tenant's
// delivered rate never exceeds its purchased aggregate, and (3) after the
// last fault clears the hardware rule table exactly equals the decision
// engine's desired offload set.
func TestChaosInvariants(t *testing.T) {
	res, err := RunChaos(FaultConfig{Seed: 7, FaultSeed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the workload and the faults actually did something.
	if res.Sent == 0 || res.Delivered == 0 {
		t.Fatalf("no traffic: sent=%d delivered=%d", res.Sent, res.Delivered)
	}
	if res.InstallRejects == 0 {
		t.Error("TCAM rejection fault never bit (InstallRejects == 0)")
	}
	if res.Crashes == 0 {
		t.Error("controller crash fault never bit (Crashes == 0)")
	}
	if res.ChannelDrops == 0 {
		t.Error("channel faults never dropped a control message")
	}
	if res.LinkDownDrops == 0 && res.LinkLossDrops == 0 {
		t.Error("link faults never dropped a packet")
	}

	// Invariant 1: zero blackholes, conservation closes.
	if res.BlackholeDrops != 0 {
		t.Errorf("blackholed packets: %d (rule divergence)", res.BlackholeDrops)
	}
	if res.Unaccounted != 0 {
		t.Errorf("conservation violated: %d packets unaccounted (sent=%d delivered=%d queue=%d down=%d loss=%d shape=%d rate=%d)",
			res.Unaccounted, res.Sent, res.Delivered,
			res.LinkQueueDrops, res.LinkDownDrops, res.LinkLossDrops,
			res.ShapeDrops, res.RateDrops)
	}

	// Invariant 2: rate cap holds in every window during recovery.
	if res.CapViolations != 0 {
		t.Errorf("tenant rate cap violated in %d windows (peak %.2f Mbps vs cap %.2f Mbps)",
			res.CapViolations, res.PeakCappedBps/1e6, res.CapLimitBps/1e6)
	}

	// Invariant 3: hardware table == desired offload set post-recovery.
	if !res.HardwareMatchesDesired {
		t.Errorf("hardware rules diverge from desired set:\n desired:  %v\n hardware: %v",
			res.Desired, res.Hardware)
	}
	if len(res.Desired) == 0 {
		t.Error("no flows offloaded by end of run; reconcile check is vacuous")
	}

	// A single controller is a replica group of one: after its crash and
	// restart it still leads alone, in replica 0's term, and no term
	// ever sees two acting replicas.
	if res.Leaders != 1 || res.LeaderReplica != 0 {
		t.Errorf("want replica 0 leading alone at the check, got %d leaders (replica %d)",
			res.Leaders, res.LeaderReplica)
	}
	if res.TermConflicts != 0 {
		t.Errorf("split brain: %d terms saw two acting replicas", res.TermConflicts)
	}
}

// TestChaosDeterminism is the determinism harness (satellite 3): equal
// seeds reproduce a byte-identical event log; changing either seed
// produces a different one.
func TestChaosDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 21, FaultSeed: 5, Horizon: 3 * time.Second, Drain: time.Second}
	a, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Log) == 0 {
		t.Fatal("empty event log")
	}
	if !slices.Equal(a.Log, b.Log) {
		for i := range a.Log {
			if i >= len(b.Log) || a.Log[i] != b.Log[i] {
				t.Fatalf("logs diverge at line %d:\n a: %q\n b: %q", i, a.Log[i], line(b.Log, i))
			}
		}
		t.Fatalf("log lengths differ: %d vs %d", len(a.Log), len(b.Log))
	}

	cfg2 := cfg
	cfg2.FaultSeed = 6
	c, err := RunChaos(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a.Log, c.Log) {
		t.Error("different fault seeds produced identical event logs")
	}

	cfg3 := cfg
	cfg3.Seed = 22
	d, err := RunChaos(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a.Log, d.Log) {
		t.Error("different engine seeds produced identical event logs")
	}
}

func line(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// TestChaosRandomPlansSurvive fuzzes the injector: several random plans,
// each a different seed, must all preserve the no-blackhole and rate-cap
// invariants (reconciliation is checked only when the last fault clears
// before the check point).
func TestChaosRandomPlansSurvive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	horizon := 4 * time.Second
	for seed := int64(1); seed <= 3; seed++ {
		plan := faults.RandomPlan(seed, 3*horizon/4, faults.TargetSet{
			Links:       []string{"uplink0", "uplink1", "uplink2", "downlink0", "downlink1", "downlink2"},
			Channels:    []string{"local0-tor", "local1-tor", "local2-tor", "torctl0-switch"},
			Tables:      []string{"tor0"},
			Controllers: []string{"torctl0"},
		})
		res, err := RunChaos(FaultConfig{Seed: seed, FaultSeed: seed, Horizon: horizon, Drain: time.Second, Plan: &plan})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.BlackholeDrops != 0 {
			t.Errorf("seed %d: %d blackholed packets", seed, res.BlackholeDrops)
		}
		if res.Unaccounted != 0 {
			t.Errorf("seed %d: conservation off by %d", seed, res.Unaccounted)
		}
		if res.CapViolations != 0 {
			t.Errorf("seed %d: %d rate-cap violations (peak %.2f Mbps)",
				seed, res.CapViolations, res.PeakCappedBps/1e6)
		}
		if lastFaultClear(plan) <= horizon-20*time.Millisecond && !res.HardwareMatchesDesired {
			t.Errorf("seed %d: hardware diverges from desired set:\n desired:  %v\n hardware: %v",
				seed, res.Desired, res.Hardware)
		}
	}
}

// lastFaultClear returns the latest time at which any windowed fault in
// the plan clears (flaps end, windows close, controllers restart).
// Permanent faults (Duration 0, other than flap) are ignored. Recovery
// assertions should only look at the interval after this.
func lastFaultClear(p faults.Plan) time.Duration {
	var last time.Duration
	for _, ev := range p.Events {
		end := ev.At + ev.Duration
		if ev.Duration == 0 {
			end = ev.At
		}
		if end > last {
			last = end
		}
	}
	return last
}
