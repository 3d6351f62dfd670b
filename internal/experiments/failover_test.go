package experiments

import (
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
)

// TestFailoverInvariants is the acceptance test for the default failover
// plan (leader crash, election-plane severing across a preempt, standby
// partitions, a paused standby): leadership moves, dueling leaders are
// fenced, and all four invariants hold — at most one leader acts per
// term, no blackholes, caps hold, and the run reconverges to a single
// leader whose desired set matches hardware and the never-faulted twin.
func TestFailoverInvariants(t *testing.T) {
	res, err := RunFailover(FaultConfig{Seed: 7, FaultSeed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: the workload ran and the machinery actually exercised.
	if res.Sent == 0 || res.Delivered == 0 {
		t.Fatalf("no traffic: sent=%d delivered=%d", res.Sent, res.Delivered)
	}
	if res.Crashes == 0 {
		t.Error("controller crash fault never bit (Crashes == 0)")
	}
	if res.Pauses == 0 {
		t.Error("controller pause fault never bit (Pauses == 0)")
	}
	if res.Elections == 0 || res.StepDowns == 0 {
		t.Errorf("leadership never moved: elections=%d stepdowns=%d",
			res.Elections, res.StepDowns)
	}
	if res.FencedInstalls == 0 {
		t.Error("no stale-term message was ever fenced; the dueling-leaders window was vacuous")
	}
	if res.LeaseRefreshes == 0 {
		t.Error("leader never refreshed leases")
	}

	// Invariant 1: at most one leader acts per term.
	if res.TermConflicts != 0 {
		t.Errorf("split brain: %d terms saw two acting replicas", res.TermConflicts)
	}

	// Invariant 2: zero blackholes, conservation closes.
	if res.BlackholeDrops != 0 {
		t.Errorf("blackholed packets: %d (rule divergence)", res.BlackholeDrops)
	}
	if res.Unaccounted != 0 {
		t.Errorf("conservation violated: %d packets unaccounted (sent=%d delivered=%d)",
			res.Unaccounted, res.Sent, res.Delivered)
	}

	// Invariant 3: rate cap holds through every failover.
	if res.CapViolations != 0 {
		t.Errorf("tenant rate cap violated in %d windows (peak %.2f Mbps vs cap %.2f Mbps)",
			res.CapViolations, res.PeakCappedBps/1e6, res.CapLimitBps/1e6)
	}

	// Invariant 4: reconvergence to a single consistent leader.
	if res.Leaders != 1 {
		t.Errorf("want exactly 1 acting leader at the check, got %d", res.Leaders)
	}
	if !res.HardwareMatchesDesired {
		t.Errorf("hardware rules diverge from desired set:\n desired:  %v\n hardware: %v",
			res.Desired, res.Hardware)
	}
	if !res.LeaseConserved {
		t.Error("hardware rules without live leases at the check")
	}
	if !res.MatchesBaseline {
		t.Errorf("faulted run did not reconverge to the never-faulted desired set:\n faulted:  %v\n baseline: %v",
			res.Desired, res.BaselineDesired)
	}
	if len(res.Desired) == 0 {
		t.Error("no flows offloaded by end of run; reconvergence check is vacuous")
	}
}

// TestFailoverDuelingLeadersFenced manufactures the split-brain case
// directly: both of replica 0's election channels are severed while it
// leads, so replica 1 claims the next term and the deposed leader —
// unreachable by heartbeat or gossip — can only learn of its deposition
// through the switch agent's stale-term fence. The fence must bite
// (FencedInstalls > 0, FencedOut > 0) and must be sufficient: no term
// ever sees two acting replicas, and the run still reconverges.
func TestFailoverDuelingLeadersFenced(t *testing.T) {
	h := 8 * time.Second
	plan := faults.Plan{Events: []faults.Event{
		{At: 2200 * time.Millisecond, Kind: faults.ChannelDown, Target: "elect0.0-1", Duration: 3 * time.Second},
		{At: 2200 * time.Millisecond, Kind: faults.ChannelDown, Target: "elect0.0-2", Duration: 3 * time.Second},
	}}
	res, err := RunFailover(FaultConfig{Seed: 3, FaultSeed: 1, Horizon: h, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.FencedInstalls == 0 {
		t.Error("isolated leader was never fenced by the switch agent")
	}
	if res.FencedOut == 0 {
		t.Error("no deposed leader ever received a stale-term error")
	}
	if res.TermConflicts != 0 {
		t.Errorf("split brain: %d terms saw two acting replicas", res.TermConflicts)
	}
	if res.BlackholeDrops != 0 || res.Unaccounted != 0 {
		t.Errorf("traffic lost under dueling leaders: blackholes=%d unaccounted=%d",
			res.BlackholeDrops, res.Unaccounted)
	}
	if res.Leaders != 1 || !res.HardwareMatchesDesired || !res.MatchesBaseline {
		t.Errorf("no reconvergence: leaders=%d match=%v baseline=%v",
			res.Leaders, res.HardwareMatchesDesired, res.MatchesBaseline)
	}
}

// TestFailoverLeaseExpiry kills the entire replica group for longer than
// the lease TTL: flow placers must stop steering into the express lane
// after TTL/2 without leader contact, the orphaned TCAM rules must expire
// on their own, no packet may blackhole at any point, and the group must
// rebuild the express lane from scratch once it returns.
func TestFailoverLeaseExpiry(t *testing.T) {
	h := 14 * time.Second
	blackout := 11*time.Second - 3*time.Second // all replicas down 3s → 11s
	plan := faults.Plan{Events: []faults.Event{
		{At: 3 * time.Second, Kind: faults.ControllerCrash, Target: "torctl0", Duration: blackout},
		{At: 3 * time.Second, Kind: faults.ControllerCrash, Target: "torctl0.1", Duration: blackout},
		{At: 3 * time.Second, Kind: faults.ControllerCrash, Target: "torctl0.2", Duration: blackout},
	}}
	res, err := RunFailover(FaultConfig{Seed: 5, FaultSeed: 1, Horizon: h, Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlacerExpiries == 0 {
		t.Error("placers never expired their placements during the controller blackout")
	}
	if res.TCAMLeaseExpiries == 0 {
		t.Error("orphaned TCAM rules never expired")
	}
	if res.BlackholeDrops != 0 || res.Unaccounted != 0 {
		t.Errorf("traffic lost across lease expiry: blackholes=%d unaccounted=%d",
			res.BlackholeDrops, res.Unaccounted)
	}
	if res.CapViolations != 0 {
		t.Errorf("rate cap violated during the blackout: %d windows", res.CapViolations)
	}
	if res.Leaders != 1 || !res.HardwareMatchesDesired || !res.LeaseConserved {
		t.Errorf("no recovery after the blackout: leaders=%d match=%v leases=%v",
			res.Leaders, res.HardwareMatchesDesired, res.LeaseConserved)
	}
	// Unlike the failover plans, a total state loss re-runs placement
	// from scratch, and hysteresis may settle on a different (equally
	// valid) fixpoint among overlapping aggregates — so the rebuilt lane
	// is only required to be non-empty and hardware-consistent, not
	// byte-equal to the never-faulted run's.
	if len(res.Desired) == 0 {
		t.Error("express lane never rebuilt after the blackout")
	}
}

// TestFailoverDeterminism: equal seeds reproduce a byte-identical event
// log (faults, election moves, lease counters and all); changing the
// fault seed changes it.
func TestFailoverDeterminism(t *testing.T) {
	cfg := FaultConfig{Seed: 21, FaultSeed: 5, Horizon: 4 * time.Second, Drain: time.Second}
	a, err := RunFailover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFailover(cfg)
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
	// The default failover plan is fully deterministic (no probabilistic
	// faults), so the fault seed is inert here; the engine seed moves
	// every sender phase and must change the log.
	cfg2 := cfg
	cfg2.Seed = 22
	c, err := RunFailover(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a.Log, c.Log) {
		t.Error("different engine seeds produced identical event logs")
	}
}

// TestFailoverChaosProperty is the acceptance property test: ≥100 seeded
// random fault plans over every registered HA surface — replica crashes,
// pauses, symmetric and asymmetric partitions, control-, switch- and
// election-channel faults, TCAM rejection — must all preserve the
// leadership, no-blackhole, rate-cap and reconvergence invariants. Every
// plan clears by 0.9 × horizon/2, leaving well over the election timeout
// plus a reconcile period for recovery before the check.
func TestFailoverChaosProperty(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 10
	}
	horizon := 6 * time.Second
	ts := faults.TargetSet{
		Channels: []string{
			"local0-tor", "local1-tor", "local2-tor",
			"local0-tor.1", "local1-tor.2", "local2-tor.1",
			"torctl0-switch", "torctl0.1-switch", "torctl0.2-switch",
			"elect0.0-1", "elect0.0-2", "elect0.1-2",
		},
		Tables:      []string{"tor0"},
		Controllers: []string{"torctl0", "torctl0.1", "torctl0.2"},
		Partitions:  []string{"torctl0", "torctl0.1", "torctl0.2"},
		Pausables:   []string{"torctl0", "torctl0.1", "torctl0.2"},
	}
	for seed := int64(1); seed <= seeds; seed++ {
		plan := faults.RandomPlan(seed, horizon/2, ts)
		res, err := runFaults(FaultConfig{
			Seed: seed, FaultSeed: seed,
			Horizon: horizon, Drain: time.Second, Plan: &plan,
		}, failoverGroup)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.TermConflicts != 0 {
			t.Errorf("seed %d: split brain — %d terms saw two acting replicas", seed, res.TermConflicts)
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
		if res.Leaders != 1 {
			t.Errorf("seed %d: %d acting leaders at the check, want 1", seed, res.Leaders)
		}
		if !res.HardwareMatchesDesired {
			t.Errorf("seed %d: hardware diverges from desired set:\n desired:  %v\n hardware: %v",
				seed, res.Desired, res.Hardware)
		}
		if !res.LeaseConserved {
			t.Errorf("seed %d: hardware rules without live leases at the check", seed)
		}
	}
}
