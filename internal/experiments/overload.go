package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/vswitch"
)

// The overload experiment exercises the slow-path overload-protection
// layer end to end: a storming tenant opens new flows far faster than the
// vswitch handler threads can scan rules while a well-behaved victim
// tenant runs beside it, and the stats path between measurement engines
// and the TOR decision engine is simultaneously degraded (report loss and
// delay). Four properties are checked:
//
//  1. Isolation. The victim tenant's slow-path service fraction stays at
//     or near 1 and it takes zero clamp drops: DRR admission plus
//     offender-targeted clamping confine the damage to the storming
//     tenant.
//  2. Exact drop accounting. Per tenant, at quiescence,
//     arrived = served + queue drops + clamp drops — nothing is silently
//     lost by the protection machinery.
//  3. Convergence. Once the storm and the stats faults clear, offload
//     decisions settle: no install, demote or flap-damper transition
//     happens after the settle point.
//  4. Determinism. Two runs with equal seeds produce identical event
//     logs.
type OverloadConfig struct {
	// Seed drives the cluster/engine RNG; FaultSeed the injector's.
	Seed      int64
	FaultSeed int64
	// Horizon is the active phase (default 6s, at least 20ms). The storm
	// runs in [Horizon/6, Horizon/2]; stats faults clear by 2·Horizon/3.
	Horizon time.Duration
	// Drain runs storm-free with senders stopped so queues empty before
	// the accounting is read (default 1s).
	Drain time.Duration
	// StormPPS is the storm's new-flow miss rate (default 30000 —
	// about 1.5× the single-handler slow-path capacity used here).
	StormPPS float64
	// SnapshotEvery paces the event-log snapshots (default 250ms).
	SnapshotEvery time.Duration
}

// TenantUpcalls is one tenant's slow-path accounting at the end of a run.
type TenantUpcalls struct {
	Tenant     packet.TenantID
	Arrived    uint64
	Served     uint64
	QueueDrops uint64
	ClampDrops uint64
	// Residual is Arrived − Served − QueueDrops − ClampDrops at
	// quiescence; zero when accounting is exact.
	Residual int64
}

// OverloadResult carries the measured invariants and the deterministic
// event log.
type OverloadResult struct {
	// PerTenant is the storming server's slow-path accounting, by
	// tenant.
	PerTenant []TenantUpcalls
	// VictimServedFraction is served/arrived for the victim tenant.
	VictimServedFraction float64
	// VictimClampDrops must be zero: clamping targets the offender only.
	VictimClampDrops uint64
	// StormClampDrops > 0 shows the clamp actually bit.
	StormClampDrops uint64

	// Overload detector activity on the storming server.
	OverloadsEntered   uint64
	OverloadsRecovered uint64
	// HintsSent/HintsReceived count OverloadHints local → TOR.
	HintsSent     uint64
	HintsReceived uint64

	// Stats-path degradation observed.
	ReportsLost    uint64
	ReportsDelayed uint64
	StatsGaps      uint64

	// Decision-machinery activity: totals at the settle point and at the
	// horizon (while traffic still flows — the drain phase's idle-flow
	// demotions are expected cleanup, not flaps). Convergence requires
	// the deltas to be zero.
	InstallsAtSettle, InstallsEnd uint64
	DemotesAtSettle, DemotesEnd   uint64
	FlapsAtSettle, FlapsEnd       uint64
	// Suppressions counts transitions the flap damper vetoed (activity
	// indicator, not an invariant).
	Suppressions uint64

	// StormOffloaded reports whether the storm tenant's aggregates were
	// in hardware at the height of the storm — the emergency-offload
	// relief valve working.
	StormOffloaded bool

	// Log is the deterministic event log (fault log + periodic
	// snapshots).
	Log []string
}

// Converged reports whether no offload-state transition happened after
// the settle point.
func (r OverloadResult) Converged() bool {
	return r.InstallsEnd == r.InstallsAtSettle &&
		r.DemotesEnd == r.DemotesAtSettle &&
		r.FlapsEnd == r.FlapsAtSettle
}

// stormDriver implements faults.Stormer: a tenant VM opening a fresh flow
// (rotating source port) per tick. The tenants in this rig carry
// port-granular ACLs (see portACL), so every flow's first packet misses
// both the exact-match fast path and the megaflow wildcard cache and
// costs a slow-path rule scan — the §3 adversarial workload.
type stormDriver struct {
	eng  *sim.Engine
	vm   *host.VM
	dst  packet.IP
	port uint16
	tk   *sim.Ticker
	// Sent counts storm packets offered.
	Sent uint64
}

// SetStorm implements faults.Stormer.
func (s *stormDriver) SetStorm(pps float64) {
	if s.tk != nil {
		s.tk.Stop()
		s.tk = nil
	}
	if pps <= 0 {
		return
	}
	period := time.Duration(float64(time.Second) / pps)
	if period <= 0 {
		period = time.Microsecond
	}
	s.tk = s.eng.Every(period, func() {
		// Rotate through high ports so every packet is a new flow.
		s.port++
		if s.port < 20000 {
			s.port = 20000
		}
		s.vm.Send(s.dst, s.port, 7000, 100, host.SendOptions{}, nil)
		s.Sent++
	})
}

// portACL builds a tenant's rule set for the overload rig: a
// service-port allow, a return-path allow, and a tenant-wide default
// allow. The verdicts are the same as an empty rule set (everything
// allowed); what matters is the *tuples*: the two port rules keep
// SrcPort/DstPort pinned in every megaflow mask this endpoint produces,
// so a tenant opening flows from fresh source ports pays one slow-path
// upcall per flow. Without port-granular rules the wildcard cache would
// absorb a §3-style new-flow storm after a single miss — which is the
// correct fast-path behaviour, but not the shared-slow-path regime this
// experiment stresses (see DESIGN.md, "Fast-path architecture").
func portACL(t packet.TenantID, ip packet.IP, svcPort uint16) *rules.VMRules {
	return &rules.VMRules{Tenant: t, VMIP: ip, Security: []rules.SecurityRule{
		{Pattern: rules.Pattern{Tenant: t, DstPort: svcPort}, Action: rules.Allow, Priority: 5},
		{Pattern: rules.Pattern{Tenant: t, SrcPort: svcPort}, Action: rules.Allow, Priority: 5},
		{Pattern: rules.Pattern{Tenant: t}, Action: rules.Allow, Priority: 0},
	}}
}

// DefaultOverloadPlan is the seeded scenario: a miss storm over the
// middle of the run, report loss on the storming server's stats path and
// report delay on the victim reporter's, all clearing well before the
// settle point.
func DefaultOverloadPlan(h time.Duration, stormPPS float64) faults.Plan {
	return faults.Plan{Events: []faults.Event{
		{At: h / 6, Kind: faults.MissStorm, Target: "storm0", Duration: h / 3, Rate: stormPPS},
		// Half the storm window also loses most demand reports from the
		// storming server: the emergency OverloadHint path and the
		// decision smoother have to carry the load.
		{At: h / 4, Kind: faults.StatsLoss, Target: "stats0", Duration: h / 4, Prob: 0.7},
		{At: h / 4, Kind: faults.StatsDelay, Target: "stats1", Duration: h / 4, Delay: 30 * time.Millisecond},
	}}
}

// RunOverload builds the rig, drives the storm and the victim workload,
// and measures the invariants.
func RunOverload(cfg OverloadConfig) (OverloadResult, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 6 * time.Second
	}
	if cfg.Drain <= 0 {
		cfg.Drain = time.Second
	}
	if cfg.StormPPS <= 0 {
		cfg.StormPPS = 30000
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 250 * time.Millisecond
	}
	if err := checkHorizon(cfg.Horizon); err != nil {
		return OverloadResult{}, err
	}

	c := cluster.New(cluster.Config{
		Servers:      2,
		VSwitchCfg:   model.VSwitchConfig{Tunneling: true},
		TCAMCapacity: 32,
		Seed:         cfg.Seed,
	})
	eng := c.Eng

	const (
		stormTenant  packet.TenantID = 7
		victimTenant packet.TenantID = 8
	)
	stormSrcIP := packet.MustParseIP("10.7.0.1")
	stormDstIP := packet.MustParseIP("10.7.0.10")
	victimSrcIP := packet.MustParseIP("10.8.0.1")
	victimDstIP := packet.MustParseIP("10.8.0.10")

	stormSrc, err := c.AddVM(0, stormTenant, stormSrcIP, 4, portACL(stormTenant, stormSrcIP, 7000))
	if err != nil {
		return OverloadResult{}, err
	}
	if _, err := c.AddVM(1, stormTenant, stormDstIP, 4, portACL(stormTenant, stormDstIP, 7000)); err != nil {
		return OverloadResult{}, err
	}
	victimSrc, err := c.AddVM(0, victimTenant, victimSrcIP, 4, portACL(victimTenant, victimSrcIP, 7000))
	if err != nil {
		return OverloadResult{}, err
	}
	if _, err := c.AddVM(1, victimTenant, victimDstIP, 4, portACL(victimTenant, victimDstIP, 7000)); err != nil {
		return OverloadResult{}, err
	}

	// Tight overload protection on the shared (storming) server: one
	// handler thread (~20k scans/s at the default cost model), a small
	// queue, a fast detector and a firm clamp, so the storm's effects —
	// and the machinery's response — are visible within seconds.
	srv0 := c.Servers[0]
	srv0.VSwitch.SetOverloadConfig(vswitch.OverloadConfig{
		UpcallQueueDepth: 64,
		MaxInFlight:      1,
		Window:           50 * time.Millisecond,
		ClampPPS:         1000,
		MinWindowUpcalls: 32,
	})

	mgr := core.Attach(c, scenarioControl())

	// Fault surfaces: the storm driver registers alongside the built-in
	// channel/table/controller/stats surfaces.
	storm := &stormDriver{eng: eng, vm: stormSrc, dst: stormDstIP}
	inj := newInjector(mgr, cfg.FaultSeed)
	inj.RegisterStormer("storm0", storm)
	if err := inj.Apply(DefaultOverloadPlan(cfg.Horizon, cfg.StormPPS)); err != nil {
		return OverloadResult{}, err
	}

	// Victim workload: modest but steady new-flow traffic (each request
	// from a fresh source port, so every request costs an upcall — the
	// worst case for a well-behaved tenant sharing the slow path).
	victimPort := uint16(30000)
	period := time.Duration(float64(time.Second) / 1000) // 1k new flows/s
	offset := time.Duration(eng.Rand().Int63n(int64(period)))
	eng.After(offset, func() {
		tk := eng.Every(period, func() {
			victimPort++
			if victimPort < 30000 {
				victimPort = 30000
			}
			victimSrc.Send(victimDstIP, victimPort, 7000, 100, host.SendOptions{}, nil)
		})
		eng.At(cfg.Horizon, func() { tk.Stop() })
	})

	mgr.Start()

	var res OverloadResult
	log := eventLog{eng: eng}

	// Periodic deterministic snapshots.
	eng.Every(cfg.SnapshotEvery, func() {
		tel := srv0.VSwitch.Counters()
		entered, recovered := srv0.VSwitch.OverloadEvents()
		tr, su := mgr.TORCtl.FlapStats()
		log.logf("snap up=%d served=%d qdrop=%d clamp=%d overloaded=%v enter=%d recover=%d off=%d inst=%d dem=%d flaps=%d supp=%d gaps=%d",
			tel.Upcalls, tel.UpcallsServed, tel.Drops.UpcallQueue, tel.Drops.Clamp,
			srv0.VSwitch.Overloaded(), entered, recovered,
			len(mgr.OffloadedPatterns()), mgr.TORCtl.Installs, mgr.TORCtl.Demotes, tr, su,
			mgr.TORCtl.StatsGaps)
	})

	// Mid-storm check: did the emergency offload move the storm
	// tenant's aggregates to hardware?
	eng.At(cfg.Horizon*5/12, func() {
		for _, p := range mgr.OffloadedPatterns() {
			if p.Tenant == stormTenant {
				res.StormOffloaded = true
			}
		}
		log.logf("midstorm stormOffloaded=%v", res.StormOffloaded)
	})

	// Settle point: all faults cleared by 2·Horizon/3; allow the decision
	// machinery a few control intervals to finish reacting, then record
	// the totals any further transition would violate.
	settleAt := cfg.Horizon * 5 / 6
	eng.At(settleAt, func() {
		tr, _ := mgr.TORCtl.FlapStats()
		res.InstallsAtSettle = mgr.TORCtl.Installs
		res.DemotesAtSettle = mgr.TORCtl.Demotes
		res.FlapsAtSettle = tr
		log.logf("settle inst=%d dem=%d flaps=%d", res.InstallsAtSettle, res.DemotesAtSettle, res.FlapsAtSettle)
	})

	// End of the active phase: record the convergence-window totals before
	// the senders stop (idle flows demoted during the drain are routine
	// cleanup, not instability).
	eng.At(cfg.Horizon, func() {
		tr, _ := mgr.TORCtl.FlapStats()
		res.InstallsEnd = mgr.TORCtl.Installs
		res.DemotesEnd = mgr.TORCtl.Demotes
		res.FlapsEnd = tr
		log.logf("horizon inst=%d dem=%d flaps=%d", res.InstallsEnd, res.DemotesEnd, res.FlapsEnd)
	})

	eng.RunUntil(cfg.Horizon + cfg.Drain)
	mgr.Stop()

	// Accounting at quiescence.
	for _, st := range srv0.VSwitch.UpcallStats() {
		tu := TenantUpcalls{
			Tenant:     st.Tenant,
			Arrived:    st.Arrived,
			Served:     st.Served,
			QueueDrops: st.QueueDrops,
			ClampDrops: st.ClampDrops,
			Residual:   int64(st.Arrived) - int64(st.Served) - int64(st.QueueDrops) - int64(st.ClampDrops),
		}
		res.PerTenant = append(res.PerTenant, tu)
		switch st.Tenant {
		case victimTenant:
			if st.Arrived > 0 {
				res.VictimServedFraction = float64(st.Served) / float64(st.Arrived)
			}
			res.VictimClampDrops = st.ClampDrops
		case stormTenant:
			res.StormClampDrops = st.ClampDrops
		}
	}
	res.OverloadsEntered, res.OverloadsRecovered = srv0.VSwitch.OverloadEvents()
	res.HintsSent = mgr.Locals[0].Hints + mgr.Locals[1].Hints
	res.HintsReceived = mgr.TORCtl.Hints
	res.StatsGaps = mgr.TORCtl.StatsGaps
	for _, lc := range mgr.Locals {
		lost, delayed := lc.MEFaultStats()
		res.ReportsLost += lost
		res.ReportsDelayed += delayed
	}
	_, su := mgr.TORCtl.FlapStats()
	res.Suppressions = su
	res.Log = log.after(inj)
	return res, nil
}
