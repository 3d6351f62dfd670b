package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/smartnic"
)

// The tiered experiment demonstrates the three-rung placement ladder
// (software vswitch → SmartNIC → ToR TCAM) end to end. A single tenant
// runs five services at geometrically spaced rates against a TCAM
// squeezed to MaxOffloads entries and per-server SmartNICs with a small
// rule table, so the decision engine has to ration both hardware tiers:
// the hottest flows win the TCAM, the next band lands on the NICs, the
// tail stays in software. Halfway through, a latecomer service appears
// and ramps past every incumbent, and the run records the ladder doing
// its job: the latecomer's patterns graduate software → NIC → TCAM, and
// the displaced incumbents demote under pressure — all without dropping
// a packet to rule divergence (the conservation equation closes and the
// blackhole counters stay zero).
type TieredConfig struct {
	// Seed drives the cluster/engine RNG.
	Seed int64
	// Horizon is the active traffic phase (default 8s, at least 20ms).
	// The latecomer starts at Horizon/2 and ramps at 5·Horizon/8.
	Horizon time.Duration
	// Drain runs with senders stopped so in-flight packets settle
	// before conservation accounting (default 2s).
	Drain time.Duration
	// SnapshotEvery paces the tier-membership samples (default 50ms).
	SnapshotEvery time.Duration
	// Chaos applies a seeded random fault plan over every registered
	// surface — links, control channels, rule tables, controllers and
	// SmartNICs (reset, corruption, install rejection) — clearing by
	// 3·Horizon/4. The no-blackhole property test runs in this mode: the
	// ladder must stay loss-free while rules vanish underneath it.
	Chaos bool
	// FaultSeed drives the injector's randomness (Chaos only).
	FaultSeed int64
}

// TieredResult carries the observed ladder dynamics and the conservation
// accounting.
type TieredResult struct {
	// Graduated lists patterns observed on the NIC tier (and not in the
	// TCAM) at one sample and inside the TCAM at a later one — the
	// ladder's upward path. Demonstrating graduation is the point of the
	// experiment; it must be non-empty.
	Graduated []string
	// DemotedUnderPressure lists patterns that held a hardware tier when
	// the latecomer appeared (the settle snapshot at Horizon/2) and a
	// strictly lower tier at the end — the ladder's downward path.
	DemotedUnderPressure []string
	// TiersAtSettle and TiersEnd are "tier pattern" lines (tier ∈
	// tcam|nic), sorted, at Horizon/2 and just before Horizon.
	TiersAtSettle []string
	TiersEnd      []string

	// SmartNIC datapath activity summed over every server. Hits must be
	// non-zero (flows actually rode the middle tier); Misses and
	// Throttled are fallbacks to the vswitch, never drops.
	NIC metrics.NICCounters
	// Controller-side NIC tier activity.
	NICPlacements uint64
	NICDemotes    uint64
	NICReasserts  uint64
	NICOrphans    uint64
	// TCAM tier activity.
	Installs uint64
	Demotes  uint64

	// Conservation accounting (after drain). BlackholeDrops and
	// Unaccounted must be zero.
	Conservation

	// FaultLog is the injector's chronological record (Chaos only); Log
	// is the full deterministic event log (faults + tier transitions +
	// periodic snapshots) used by the determinism harness.
	FaultLog []string
	Log      []string
}

// Passed reports whether the run demonstrated the ladder: graduation
// upward, demotion under pressure, NIC datapath hits, and exact packet
// conservation with zero blackhole drops.
func (r TieredResult) Passed() bool {
	return len(r.Graduated) > 0 && len(r.DemotedUnderPressure) > 0 &&
		r.NIC.Hits > 0 && r.BlackholeDrops == 0 && r.Unaccounted == 0
}

// RunTiered builds the SmartNIC-equipped rig, runs the two-phase
// workload and measures the ladder dynamics.
func RunTiered(cfg TieredConfig) (TieredResult, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 8 * time.Second
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 2 * time.Second
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 50 * time.Millisecond
	}
	if err := checkHorizon(cfg.Horizon); err != nil {
		return TieredResult{}, err
	}

	nicCfg := smartnic.DefaultConfig()
	nicCfg.Capacity = 4
	nicCfg.TenantQuota = 4
	c := cluster.New(cluster.Config{
		Servers:      3,
		VSwitchCfg:   model.VSwitchConfig{Tunneling: true},
		TCAMCapacity: 32,
		Seed:         cfg.Seed,
		SmartNIC:     &nicCfg,
	})
	eng := c.Eng

	// Every service VM lives on server 0 (so its response aggregates
	// compete for one SmartNIC's four entries); clients alternate
	// between servers 1 and 2.
	const tenant = 3
	type svc struct {
		client *host.VM
		dst    packet.IP
		port   uint16
		rate   float64
	}
	newSvc := func(i int, clientSrv int, rate float64) (svc, error) {
		sIP := packet.MustParseIP(fmt.Sprintf("10.3.0.%d", 10+i))
		cIP := packet.MustParseIP(fmt.Sprintf("10.3.1.%d", 10+i))
		port := uint16(9000 + i)
		server, err := c.AddVM(0, tenant, sIP, 4, nil)
		if err != nil {
			return svc{}, err
		}
		client, err := c.AddVM(clientSrv, tenant, cIP, 4, nil)
		if err != nil {
			return svc{}, err
		}
		server.BindApp(port, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, port, p.TCP.SrcPort, 400, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
		return svc{client: client, dst: sIP, port: port, rate: rate}, nil
	}

	// Base band: 200 → 3200 pps, a clear ranking for the DE.
	var svcs []svc
	for i := 0; i < 5; i++ {
		s, err := newSvc(i, 1+i%2, 200*float64(uint(1)<<uint(i)))
		if err != nil {
			return TieredResult{}, err
		}
		svcs = append(svcs, s)
	}
	// The latecomer: idle until Horizon/2, then 2000 pps (lands on the
	// NIC tier: above the NIC cutoff, below the TCAM incumbents'
	// hysteresis bar), then ramps past everyone at 5·Horizon/8.
	late, err := newSvc(5, 2, 2000)
	if err != nil {
		return TieredResult{}, err
	}

	mcfg := scenarioControl()
	mcfg.NICMinScore = 20
	// Three TCAM seats for four equal-score latecomer aggregates
	// guarantees at least one NIC-placeable (source-pinned) pattern
	// graduates into the TCAM whichever way the tie breaks.
	mcfg.MaxOffloads = 3
	mgr := core.Attach(c, mcfg)

	var inj *faults.Injector
	if cfg.Chaos {
		inj = newInjector(mgr, cfg.FaultSeed)
		// Links, channels, tables, controllers and NICs: the data-plane
		// and single-controller surfaces the ladder is checked against.
		ts := inj.TargetSet()
		ts.StatsTaps, ts.Partitions, ts.Pausables = nil, nil, nil
		plan := faults.RandomPlan(cfg.FaultSeed, 3*cfg.Horizon/4, ts)
		if err := inj.Apply(plan); err != nil {
			return TieredResult{}, err
		}
	}

	// Traffic: the base band for the whole horizon, the latecomer from
	// Horizon/2.
	for _, s := range svcs {
		drive(eng, s.client, s.dst, 40000, s.port, s.rate, 200, 0, cfg.Horizon)
	}
	drive(eng, late.client, late.dst, 41000, late.port, late.rate, 200, cfg.Horizon/2, cfg.Horizon)
	// The ramp: a second flow of the same service adds 6400 pps, pushing
	// the latecomer's aggregate score past every TCAM incumbent.
	drive(eng, late.client, late.dst, 41001, late.port, 6400, 200, 5*cfg.Horizon/8, cfg.Horizon)

	mgr.Start()

	res := TieredResult{}
	log := eventLog{eng: eng}

	// Tier-membership sampler: tracks, per pattern, whether it has been
	// seen NIC-placed while outside the TCAM — the precondition for
	// counting a later TCAM appearance as a graduation (a pattern the DE
	// sends straight to the TCAM never graduates, it just wins).
	wasNICOnly := make(map[string]bool)
	graduated := make(map[string]bool)
	tierLines := func() (map[string]int, []string) {
		rank := make(map[string]int)
		var lines []string
		for _, p := range mgr.NICPlacedPatterns() {
			rank[p.String()] = 1
		}
		for _, p := range mgr.OffloadedPatterns() {
			rank[p.String()] = 2 // TCAM wins when both (promotion in flight)
		}
		for _, p := range mgr.NICPlacedPatterns() {
			if rank[p.String()] == 1 {
				lines = append(lines, "nic "+p.String())
			}
		}
		for _, p := range mgr.OffloadedPatterns() {
			lines = append(lines, "tcam "+p.String())
		}
		return rank, lines
	}
	var prevNIC, prevTCAM int
	eng.Every(cfg.SnapshotEvery, func() {
		tcam := make(map[string]bool)
		for _, p := range mgr.OffloadedPatterns() {
			tcam[p.String()] = true
		}
		nNIC := 0
		for _, p := range mgr.NICPlacedPatterns() {
			s := p.String()
			if !tcam[s] {
				wasNICOnly[s] = true
				nNIC++
			}
		}
		for s := range tcam {
			if wasNICOnly[s] && !graduated[s] {
				graduated[s] = true
				log.logf("graduated nic->tcam %s", s)
			}
		}
		if nNIC != prevNIC || len(tcam) != prevTCAM {
			log.logf("tiers nic=%d tcam=%d", nNIC, len(tcam))
			prevNIC, prevTCAM = nNIC, len(tcam)
		}
	})
	// Coarser traffic snapshots carry packet counters, so the log is
	// sensitive to the seed-dependent sender phases (the determinism
	// harness checks both directions).
	eng.Every(5*cfg.SnapshotEvery, func() {
		tx, rx := traffic(c)
		var hits uint64
		for _, srv := range c.Servers {
			if srv.SmartNIC != nil {
				hits += srv.SmartNIC.Counters().Hits
			}
		}
		log.logf("snap tx=%d rx=%d nichits=%d tcam=%d", tx, rx, hits, c.TOR.TCAMUsed())
	})

	// Settle snapshot: the ladder as the latecomer appears.
	rankAtSettle := make(map[string]int)
	eng.At(cfg.Horizon/2-time.Millisecond, func() {
		var lines []string
		rankAtSettle, lines = tierLines()
		res.TiersAtSettle = lines
		log.logf("settle tiers=%d", len(lines))
	})
	// End snapshot: who was displaced.
	eng.At(cfg.Horizon-10*time.Millisecond, func() {
		rankEnd, lines := tierLines()
		res.TiersEnd = lines
		settled := make([]string, 0, len(rankAtSettle))
		for s := range rankAtSettle {
			settled = append(settled, s)
		}
		sort.Strings(settled)
		for _, s := range settled {
			if rankEnd[s] < rankAtSettle[s] {
				res.DemotedUnderPressure = append(res.DemotedUnderPressure, s)
				log.logf("demoted %s %d->%d", s, rankAtSettle[s], rankEnd[s])
			}
		}
	})

	eng.RunUntil(cfg.Horizon + cfg.Drain)
	mgr.Stop()

	for s := range graduated {
		res.Graduated = append(res.Graduated, s)
	}
	sort.Strings(res.Graduated)

	// Conservation accounting, plus the SmartNIC datapath counters: NIC
	// misses and throttles fall back to the vswitch and must never show
	// up as drops.
	res.Conservation = conserve(c)
	for _, srv := range c.Servers {
		if srv.SmartNIC != nil {
			res.NIC = res.NIC.Add(srv.SmartNIC.Counters())
		}
	}

	tc := mgr.TORCtl
	res.NICPlacements = tc.NICPlacements
	res.NICDemotes = tc.NICDemotes
	res.NICReasserts = tc.NICReasserts
	res.NICOrphans = tc.NICOrphans
	res.Installs = tc.Installs
	res.Demotes = tc.Demotes
	if inj != nil {
		res.FaultLog = inj.Log()
	}
	res.Log = log.after(inj)
	return res, nil
}
