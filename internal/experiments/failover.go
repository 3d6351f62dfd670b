package experiments

import (
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
)

// The fault rig exercises FasTrak's recovery machinery: a steady
// two-tenant workload (an uncapped echo service under tenant 3, a
// rate-capped one-way stream under tenant 4) runs while internal/faults
// injects failures into a rack whose ToR decision engine is a replica
// group. Two plans drive it at two group sizes:
//
//   - RunChaos, a group of one: link flaps, packet loss, control-channel
//     failures, TCAM install rejections and a controller crash/restart.
//   - RunFailover, three hot standbys with lease-based fail-safe rules:
//     replica crashes, pauses and partitions and severed election
//     channels.
//
// Both check the same invariants:
//
//  1. At most one leader acts per term. Leadership terms are partitioned
//     across replicas and the switch agent fences stale terms, so the
//     agent's term-conflict counter must stay zero no matter how the
//     election plane is mangled (a severed election channel manufactures
//     dueling leaders on purpose; fencing must contain them).
//  2. No blackholes. Every lost packet is attributable to a physical
//     fault (link down/loss, queue overflow) or to rate enforcement;
//     the rule-divergence drop counters stay at zero, and the
//     conservation equation closes exactly after a drain, through every
//     leadership gap.
//  3. Tenant rate caps hold throughout recovery: the capped tenant's
//     delivered traffic never exceeds its purchased aggregate.
//  4. Reconvergence: after the last fault clears, exactly one leader
//     acts and the hardware tables equal its desired offload set. Under
//     leases every hardware rule holds a live one, and RunFailover also
//     checks the desired set against a never-faulted run of the same
//     workload.
type FaultConfig struct {
	// Seed drives the cluster/engine RNG; FaultSeed the injector's.
	Seed      int64
	FaultSeed int64
	// Horizon is the active traffic phase (default 8s); all faults
	// clear comfortably before it ends so reconvergence is observable.
	Horizon time.Duration
	// Drain runs fault-free with senders stopped so in-flight packets
	// settle before conservation accounting (default 2s).
	Drain time.Duration
	// Plan overrides the entry point's default plan.
	Plan *faults.Plan
	// SnapshotEvery paces the event-log snapshots (default 250ms).
	SnapshotEvery time.Duration
}

// horizonOf is cfg.Horizon or its 8s default; the entry points scale their
// default plans to it.
func horizonOf(cfg FaultConfig) time.Duration {
	if cfg.Horizon <= 0 {
		return 8 * time.Second
	}
	return cfg.Horizon
}

// fill sets the timing defaults.
func (cfg *FaultConfig) fill() {
	cfg.Horizon = horizonOf(*cfg)
	if cfg.Drain <= 0 {
		cfg.Drain = 2 * time.Second
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 250 * time.Millisecond
	}
}

// FaultResult carries the measured invariants and the deterministic
// event log.
type FaultResult struct {
	// Conservation accounting (after drain).
	Conservation

	// Rate-cap invariant.
	CapLimitBps   float64
	PeakCappedBps float64
	CapViolations int

	// Leadership invariants. TermConflicts is the split-brain detector
	// and must be zero; FencedInstalls counts stale-term messages the
	// switch agent rejected (evidence fencing actually bit when the plan
	// manufactures dueling leaders). Leaders is the number of acting
	// leaders at the reconvergence check and must be exactly one.
	Elections      uint64
	StepDowns      uint64
	FencedInstalls uint64
	TermConflicts  uint64
	FencedOut      uint64 // stale-term errors received by deposed leaders
	FencedSyncs    uint64 // stale-term syncs/decisions dropped by locals
	Leaders        int
	LeaderReplica  int    // replica id of the final leader (-1 if none)
	FinalTerm      uint32 // its leadership term

	// Lease machinery activity and conservation. LeaseConserved means
	// every controller-owned hardware rule held a live lease at the
	// reconvergence check; it only means something under RunFailover's
	// leases (without them the table holds none).
	LeaseRefreshes    uint64
	TCAMLeaseExpiries uint64
	PlacerExpiries    uint64
	DegradedDemotes   uint64
	LeaseConserved    bool

	// End-state reconciliation (checked just before Horizon, after every
	// fault has cleared, while traffic still flows): the leader's desired
	// set equals the hardware tables and, for RunFailover, the desired set
	// of a never-faulted twin run.
	HardwareMatchesDesired bool
	MatchesBaseline        bool
	Desired                []string
	Hardware               []string
	BaselineDesired        []string

	// Recovery-machinery activity (sanity: the faults actually bit),
	// summed over the replica group.
	Installs       uint64
	InstallRejects uint64
	Retries        uint64
	GiveUps        uint64
	Repairs        uint64
	Orphans        uint64
	Crashes        uint64
	Pauses         uint64
	ChannelDrops   uint64

	// FaultLog is the injector's chronological record; Log is the full
	// deterministic event log (faults + periodic state snapshots) used
	// by the determinism harness.
	FaultLog []string
	Log      []string
}

// countGroup sums rack 0's replica counters into r.
func (r *FaultResult) countGroup(mgr *core.Manager) {
	for _, tc := range mgr.Replicas(0) {
		r.Elections += tc.Elections
		r.StepDowns += tc.StepDowns
		r.FencedOut += tc.FencedOut
		r.LeaseRefreshes += tc.LeaseRefreshes
		r.DegradedDemotes += tc.DegradedDemotes
		r.Installs += tc.Installs
		r.Retries += tc.Retries
		r.GiveUps += tc.GiveUps
		r.Repairs += tc.Repairs
		r.Orphans += tc.Orphans
		r.Crashes += tc.Crashes
		r.Pauses += tc.Pauses
	}
}

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

// DefaultFailoverPlan is the replica group's seeded scenario. With the
// rig's 500ms control interval and three replicas it walks the failover
// machinery through its distinct regimes, every window clearing by
// 13h/16:
//
//   - both of replica 0's election channels severed while it leads and
//     long enough to cover one of its reconcile points — the isolated
//     leader keeps acting while replica 1 claims the next term, so
//     dueling leaders demonstrably occur and the deposed one (severed
//     from heartbeat and gossip alike) can only learn of its deposition
//     through the switch agent's stale-term fence;
//   - an asymmetric partition, a symmetric partition and a pause of
//     standby replica 2 (an isolated or frozen standby must not disturb
//     the acting leader, and must rejoin as a follower);
//   - a leader crash after the election plane heals (replica 1 must
//     claim, and replica 0 must preempt back after restarting).
func DefaultFailoverPlan(h time.Duration) faults.Plan {
	return faults.Plan{Events: []faults.Event{
		{At: 11 * h / 40, Kind: faults.ChannelDown, Target: "elect0.0-1", Duration: 3 * h / 8},
		{At: 11 * h / 40, Kind: faults.ChannelDown, Target: "elect0.0-2", Duration: 3 * h / 8},
		{At: 3 * h / 8, Kind: faults.PartitionAsym, Target: "torctl0.2", Duration: h / 16},
		{At: 9 * h / 16, Kind: faults.PartitionNode, Target: "torctl0.2", Duration: h / 16},
		{At: 5 * h / 8, Kind: faults.ControllerPause, Target: "torctl0.2", Duration: h / 16},
		{At: 11 * h / 16, Kind: faults.ControllerCrash, Target: "torctl0", Duration: h / 8},
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

// failoverGroup is RunFailover's replica group: three replicas and a 5s
// lease, ten of the rig's 500ms control intervals.
var failoverGroup = core.HAConfig{Replicas: 3, LeaseTTL: 5 * time.Second}

// RunFailover runs the fault rig with failoverGroup under
// DefaultFailoverPlan unless cfg.Plan overrides it — then runs a
// never-faulted twin (same seed, same workload, no plan) and checks the
// faulted run reconverged to the twin's desired offload set.
func RunFailover(cfg FaultConfig) (FaultResult, error) {
	if cfg.Plan == nil {
		plan := DefaultFailoverPlan(horizonOf(cfg))
		cfg.Plan = &plan
	}
	res, err := runFaults(cfg, failoverGroup)
	if err != nil {
		return res, err
	}
	cfg.Plan = nil
	base, err := runFaults(cfg, failoverGroup)
	if err != nil {
		return res, err
	}
	res.BaselineDesired = base.Desired
	res.MatchesBaseline = slices.Equal(res.Desired, base.Desired)
	return res, nil
}

// runFaults builds the rig with ha as rack 0's controller group, applies
// cfg.Plan unless it is nil, runs the workload and measures the
// invariants.
func runFaults(cfg FaultConfig, ha core.HAConfig) (FaultResult, error) {
	cfg.fill()
	c := cluster.New(cluster.Config{
		Servers:      3,
		VSwitchCfg:   model.VSwitchConfig{Tunneling: true},
		TCAMCapacity: 32,
		Seed:         cfg.Seed,
	})
	eng := c.Eng

	// Tenant 3 (unlimited): two clients driving an echo service.
	svcIP := packet.MustParseIP("10.3.0.10")
	cl1IP := packet.MustParseIP("10.3.0.1")
	cl2IP := packet.MustParseIP("10.3.0.2")
	svc, err := c.AddVM(0, 3, svcIP, 4, nil)
	if err != nil {
		return FaultResult{}, err
	}
	cl1, err := c.AddVM(1, 3, cl1IP, 4, nil)
	if err != nil {
		return FaultResult{}, err
	}
	cl2, err := c.AddVM(2, 3, cl2IP, 4, nil)
	if err != nil {
		return FaultResult{}, err
	}
	svc.BindApp(11211, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
		vm.Send(p.IP.Src, 11211, p.TCP.SrcPort, 400, host.SendOptions{Seq: p.Meta.Seq}, nil)
	}))

	// Tenant 4 (rate-capped): a one-way stream offered well above the
	// purchased aggregate; enforcement must hold through every fault.
	capSrcIP := packet.MustParseIP("10.4.0.1")
	capDstIP := packet.MustParseIP("10.4.0.10")
	capSrc, err := c.AddVM(1, 4, capSrcIP, 4, nil)
	if err != nil {
		return FaultResult{}, err
	}
	capDst, err := c.AddVM(0, 4, capDstIP, 4, nil)
	if err != nil {
		return FaultResult{}, err
	}

	mcfg := scenarioControl()
	mcfg.HA = ha
	mgr := core.Attach(c, mcfg)

	const capLimitBps = 10e6
	mgr.SetVMLimit(4, capSrcIP, capLimitBps, 1e9)
	mgr.SetVMLimit(4, capDstIP, 1e9, 1e9)

	var inj *faults.Injector
	if cfg.Plan != nil {
		inj = newInjector(c, mgr, cfg.FaultSeed)
		if err := inj.Apply(*cfg.Plan); err != nil {
			return FaultResult{}, err
		}
	}

	// Traffic: echo requests at a few kpps, capped stream at ~16 Mbps
	// offered against the 10 Mbps cap.
	drive(eng, cl1, svcIP, 40001, 11211, 2500, 200, 0, cfg.Horizon)
	drive(eng, cl2, svcIP, 40002, 11211, 1500, 200, 0, cfg.Horizon)
	drive(eng, capSrc, capDstIP, 41000, 9000, 2000, 1000, 0, cfg.Horizon)

	mgr.Start()

	log := eventLog{eng: eng}

	// Rate-cap sampler. Enforcement happens at the sender (VIF htb) or
	// the ToR (VF limiter); queues downstream of the enforcement point
	// can briefly drain above the cap after a link recovers, which is
	// not an enforcement failure. So the invariant is token-bucket
	// shaped: cumulative delivered payload never exceeds cap×t plus a
	// burst allowance sized to in-network queueing (well under one
	// second of the overage an actual enforcement failure would leak).
	// PeakCappedBps additionally records the per-window delivered rate
	// for reporting.
	res := FaultResult{CapLimitBps: capLimitBps, LeaderReplica: -1}
	const window = 100 * time.Millisecond
	const burstAllowance = 512 << 10 // bytes
	var lastCapRx uint64
	eng.Every(window, func() {
		_, _, _, rxb := capDst.Counters()
		bps := float64(rxb-lastCapRx) * 8 / window.Seconds()
		lastCapRx = rxb
		if bps > res.PeakCappedBps {
			res.PeakCappedBps = bps
		}
		budget := capLimitBps/8*eng.Now().Seconds() + burstAllowance
		if float64(rxb) > budget {
			res.CapViolations++
			log.logf("CAP VIOLATION cum=%dB budget=%.0fB window=%.1fMbps", rxb, budget, bps/1e6)
		}
	})

	// Periodic deterministic snapshots: traffic totals, rule-table and
	// drop counters, the group's recovery counters and the leadership
	// picture (who leads under which term, fencing and lease counters),
	// so the determinism harness covers every part of the machinery.
	eng.Every(cfg.SnapshotEvery, func() {
		tx, rx := traffic(c)
		acl, rate, noVRF, unrouted, _, _ := c.TOR.Counters()
		leader, term := -1, uint32(0)
		if lt := mgr.LeaderOf(0); lt != nil {
			leader, term = lt.ReplicaID(), lt.Term()
		}
		var g FaultResult
		g.countGroup(mgr)
		fenced, conflicts := mgr.FenceStats()
		log.logf("snap tx=%d rx=%d tcam=%d off=%d acl=%d rate=%d novrf=%d unrouted=%d inst=%d retry=%d giveup=%d repair=%d orphan=%d crash=%d leader=%d term=%d elect=%d stepdown=%d fenced=%d conflict=%d leases=%d expiries=%d",
			tx, rx, c.TOR.TCAMUsed(), len(mgr.OffloadedPatterns()),
			acl, rate, noVRF, unrouted,
			g.Installs, g.Retries, g.GiveUps, g.Repairs, g.Orphans, g.Crashes,
			leader, term, g.Elections, g.StepDowns, fenced, conflicts,
			c.TOR.LeaseCount(), c.TOR.LeaseExpiries())
	})

	// Reconvergence check: just before the horizon — every fault has
	// cleared, traffic still flows, exactly one leader must be acting
	// and hardware must equal its desired set.
	eng.At(cfg.Horizon-10*time.Millisecond, func() {
		for _, tc := range mgr.Replicas(0) {
			if tc.IsLeader() {
				res.Leaders++
				res.LeaderReplica = tc.ReplicaID()
				res.FinalTerm = tc.Term()
			}
		}
		var hw []rules.Pattern
		for _, ri := range c.TOR.Rules() {
			if ri.Priority == 100 { // controller-owned
				hw = append(hw, ri.Pattern)
			}
		}
		slices.SortFunc(hw, rules.Pattern.Compare)
		res.Desired = patternStrings(mgr.OffloadedPatterns())
		res.Hardware = patternStrings(hw)
		res.HardwareMatchesDesired = slices.Equal(res.Desired, res.Hardware)
		res.LeaseConserved = c.TOR.LeaseCount() == len(hw)
		log.logf("reconcile-check leaders=%d leader=%d term=%d desired=%d hardware=%d match=%v leases=%d",
			res.Leaders, res.LeaderReplica, res.FinalTerm,
			len(res.Desired), len(hw), res.HardwareMatchesDesired, c.TOR.LeaseCount())
	})

	eng.RunUntil(cfg.Horizon + cfg.Drain)
	mgr.Stop()

	res.Conservation = conserve(c)
	res.countGroup(mgr)
	res.FencedInstalls, res.TermConflicts = mgr.FenceStats()
	for _, lc := range mgr.Locals {
		res.FencedSyncs += lc.FencedMsgs
		res.PlacerExpiries += lc.PlacerExpiries
	}
	res.TCAMLeaseExpiries = c.TOR.LeaseExpiries()
	res.InstallRejects = c.TOR.InstallRejects()
	for _, tr := range mgr.Transports() {
		res.ChannelDrops += tr.Dropped
	}
	if inj != nil {
		res.FaultLog = inj.Log()
	}
	res.Log = log.after(inj)
	return res, nil
}
