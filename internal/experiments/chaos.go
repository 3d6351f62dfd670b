package experiments

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/host"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/vswitch"
)

// The chaos experiment exercises FasTrak's recovery machinery: a steady
// two-tenant workload runs while internal/faults injects link flaps,
// packet loss, control-channel failures, TCAM install rejections and a
// TOR-controller crash/restart — and three invariants are checked:
//
//  1. No blackholes. Every lost packet is attributable to a physical
//     fault (link down/loss, queue overflow) or to rate enforcement;
//     the rule-divergence drop counters (hardware ACL misses, missing
//     VRF mappings, unrouted packets, VF steering misses, software
//     denials) stay at zero, and the conservation equation
//     sent = delivered + accounted drops closes exactly after a drain.
//  2. Tenant rate caps hold throughout recovery: the capped tenant's
//     delivered rate never exceeds its purchased aggregate in any
//     sampling window.
//  3. After the last fault clears, the hardware rule tables exactly
//     equal the decision engine's desired offload set.
type ChaosConfig struct {
	// Seed drives the cluster/engine RNG; FaultSeed the injector's.
	Seed      int64
	FaultSeed int64
	// Horizon is the active traffic phase (default 8s); all faults
	// clear comfortably before it ends.
	Horizon time.Duration
	// Drain runs fault-free with senders stopped so in-flight packets
	// settle before conservation accounting (default 2s).
	Drain time.Duration
	// Plan overrides DefaultChaosPlan.
	Plan *faults.Plan
	// SnapshotEvery paces the event-log snapshots (default 250ms).
	SnapshotEvery time.Duration
}

// ChaosResult carries the measured invariants and the deterministic
// event log.
type ChaosResult struct {
	// Conservation accounting (after drain).
	Sent           uint64
	Delivered      uint64
	LinkQueueDrops uint64
	LinkDownDrops  uint64
	LinkLossDrops  uint64
	ShapeDrops     uint64 // vswitch htb rate enforcement
	// UpcallQueueDrops and ClampDrops are the vswitch slow path's
	// overload-protection causes (bounded upcall queues, miss-rate clamp);
	// zero in this scenario's plans but part of conservation regardless.
	UpcallQueueDrops uint64
	ClampDrops       uint64
	RateDrops        uint64 // ToR VF rate enforcement
	// BlackholeDrops sums every rule-divergence counter: hardware ACL
	// misses, missing VRF mappings, ToR/vswitch unrouted, VF steering
	// misses and software denials. Must be zero.
	BlackholeDrops uint64
	// Unaccounted is Sent − Delivered − all accounted drops. Zero when
	// conservation closes.
	Unaccounted int64

	// Rate-cap invariant.
	CapLimitBps   float64
	PeakCappedBps float64
	CapViolations int

	// End-state reconciliation invariant (checked just before Horizon,
	// while traffic still flows and after every fault has cleared).
	HardwareMatchesDesired bool
	Desired                []string
	Hardware               []string

	// Recovery-machinery activity (sanity: the faults actually bit).
	InstallRejects uint64
	Retries        uint64
	GiveUps        uint64
	Repairs        uint64
	Orphans        uint64
	Crashes        uint64
	ChannelDrops   uint64

	// FaultLog is the injector's chronological record; Log is the full
	// deterministic event log (faults + periodic state snapshots) used
	// by the determinism harness.
	FaultLog []string
	Log      []string
}

// DefaultChaosPlan is the seeded scenario of the acceptance criteria:
// an access-link flap, a TCAM install-rejection window, control-channel
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

// RunChaos builds the rig, applies the fault plan, runs the workload and
// measures the invariants.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 8 * time.Second
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 2 * time.Second
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 250 * time.Millisecond
	}
	plan := DefaultChaosPlan(cfg.Horizon)
	if cfg.Plan != nil {
		plan = *cfg.Plan
	}

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
		return ChaosResult{}, err
	}
	cl1, err := c.AddVM(1, 3, cl1IP, 4, nil)
	if err != nil {
		return ChaosResult{}, err
	}
	cl2, err := c.AddVM(2, 3, cl2IP, 4, nil)
	if err != nil {
		return ChaosResult{}, err
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
		return ChaosResult{}, err
	}
	capDst, err := c.AddVM(0, 4, capDstIP, 4, nil)
	if err != nil {
		return ChaosResult{}, err
	}

	mcfg := core.DefaultConfig()
	mcfg.Measure = measure.Config{
		SampleGap:         50 * time.Millisecond,
		Epoch:             250 * time.Millisecond,
		EpochsPerInterval: 2,
		HistoryIntervals:  4,
		Aggregate:         true,
	}
	mcfg.MinScore = 100
	mgr := core.Attach(c, mcfg)

	const capLimitBps = 10e6
	mgr.SetVMLimit(4, capSrcIP, capLimitBps, 1e9)
	mgr.SetVMLimit(4, capDstIP, 1e9, 1e9)

	// Fault surfaces.
	inj := faults.NewInjector(eng, cfg.FaultSeed)
	c.RegisterFaults(inj)
	mgr.RegisterFaults(inj)
	if err := inj.Apply(plan); err != nil {
		return ChaosResult{}, err
	}

	// Traffic: echo requests at a few kpps, capped stream at ~16 Mbps
	// offered against the 10 Mbps cap. Each sender starts at a random
	// phase within its period (drawn from the engine RNG) so runs are
	// seed-sensitive, as the determinism harness requires.
	drive := func(vm *host.VM, dst packet.IP, srcPort, dstPort uint16, rate float64, size int) {
		period := time.Duration(float64(time.Second) / rate)
		offset := time.Duration(eng.Rand().Int63n(int64(period)))
		eng.After(offset, func() {
			tk := eng.Every(period, func() {
				vm.Send(dst, srcPort, dstPort, size, host.SendOptions{}, nil)
			})
			eng.At(cfg.Horizon, func() { tk.Stop() })
		})
	}
	drive(cl1, svcIP, 40001, 11211, 2500, 200)
	drive(cl2, svcIP, 40002, 11211, 1500, 200)
	drive(capSrc, capDstIP, 41000, 9000, 2000, 1000)

	mgr.Start()

	var log []string
	logf := func(format string, args ...interface{}) {
		log = append(log, fmt.Sprintf("%12s "+format, append([]interface{}{eng.Now()}, args...)...))
	}

	// Rate-cap sampler. Enforcement happens at the sender (VIF htb) or
	// the ToR (VF limiter); queues downstream of the enforcement point
	// can briefly drain above the cap after a link recovers, which is
	// not an enforcement failure. So the invariant is token-bucket
	// shaped: cumulative delivered payload never exceeds cap×t plus a
	// burst allowance sized to in-network queueing (well under one
	// second of the overage an actual enforcement failure would leak).
	// PeakCappedBps additionally records the per-window delivered rate
	// for reporting.
	res := ChaosResult{CapLimitBps: capLimitBps}
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
			logf("CAP VIOLATION cum=%dB budget=%.0fB window=%.1fMbps", rxb, budget, bps/1e6)
		}
	})

	// Periodic deterministic snapshots for the determinism harness.
	eng.Every(cfg.SnapshotEvery, func() {
		var tx, rx uint64
		for _, srv := range c.Servers {
			for _, key := range sortedVMKeys(srv) {
				t, r, _, _ := srv.VMs[key].Counters()
				tx += t
				rx += r
			}
		}
		acl, rate, noVRF, unrouted, _, _ := c.TOR.Counters()
		tc := mgr.TORCtl
		logf("snap tx=%d rx=%d tcam=%d off=%d acl=%d rate=%d novrf=%d unrouted=%d inst=%d retry=%d giveup=%d repair=%d orphan=%d crash=%d",
			tx, rx, c.TOR.TCAMUsed(), len(mgr.OffloadedPatterns()),
			acl, rate, noVRF, unrouted,
			tc.Installs, tc.Retries, tc.GiveUps, tc.Repairs, tc.Orphans, tc.Crashes)
	})

	// Invariant 3 check: just before the horizon — every fault has
	// cleared, traffic still flows, the offload set is steady.
	eng.At(cfg.Horizon-10*time.Millisecond, func() {
		desired := mgr.OffloadedPatterns()
		var hw []rules.Pattern
		for _, ri := range c.TOR.Rules() {
			if ri.Priority == 100 {
				hw = append(hw, ri.Pattern)
			}
		}
		slices.SortFunc(hw, rules.Pattern.Compare)
		res.Desired = patternStrings(desired)
		res.Hardware = patternStrings(hw)
		res.HardwareMatchesDesired = equalStrings(res.Desired, res.Hardware)
		logf("reconcile-check desired=%d hardware=%d match=%v", len(desired), len(hw), res.HardwareMatchesDesired)
	})

	eng.RunUntil(cfg.Horizon + cfg.Drain)
	mgr.Stop()

	// Conservation accounting.
	for _, srv := range c.Servers {
		for _, key := range sortedVMKeys(srv) {
			t, r, _, _ := srv.VMs[key].Counters()
			res.Sent += t
			res.Delivered += r
		}
	}
	for i := range c.Servers {
		for _, l := range []interface {
			Stats() (uint64, uint64, uint64)
			FaultDrops() (uint64, uint64)
		}{c.Uplink(i), c.Downlink(i)} {
			_, _, q := l.Stats()
			d, lo := l.FaultDrops()
			res.LinkQueueDrops += q
			res.LinkDownDrops += d
			res.LinkLossDrops += lo
		}
	}
	aclDrops, rateDrops, noVRF, torUnrouted, _, _ := c.TOR.Counters()
	res.RateDrops = rateDrops
	var denied, swUnrouted, steerMiss uint64
	for _, srv := range c.Servers {
		tel := srv.VSwitch.Counters()
		denied += tel.Denied
		swUnrouted += tel.Unrouted
		res.ShapeDrops += tel.Drops.Shape
		res.UpcallQueueDrops += tel.Drops.UpcallQueue
		res.ClampDrops += tel.Drops.Clamp
		_, _, _, _, sm := srv.NIC.Counters()
		steerMiss += sm
	}
	res.BlackholeDrops = aclDrops + noVRF + torUnrouted + denied + swUnrouted + steerMiss
	res.Unaccounted = int64(res.Sent) - int64(res.Delivered) -
		int64(res.LinkQueueDrops+res.LinkDownDrops+res.LinkLossDrops) -
		int64(res.ShapeDrops+res.UpcallQueueDrops+res.ClampDrops+res.RateDrops) -
		int64(res.BlackholeDrops)

	tc := mgr.TORCtl
	res.InstallRejects = c.TOR.InstallRejects()
	res.Retries = tc.Retries
	res.GiveUps = tc.GiveUps
	res.Repairs = tc.Repairs
	res.Orphans = tc.Orphans
	res.Crashes = tc.Crashes
	_, chDrops := controlDrops(mgr)
	res.ChannelDrops = chDrops
	res.FaultLog = inj.Log()
	res.Log = append(append([]string{}, inj.Log()...), log...)
	return res, nil
}

// controlDrops totals control-channel sends and fault drops.
func controlDrops(mgr *core.Manager) (sent, dropped uint64) {
	msgs, _, _ := mgr.ControlStats()
	swMsgs, _ := mgr.SwitchStats()
	sent = msgs + swMsgs
	for _, tr := range mgr.Transports() {
		dropped += tr.Dropped
	}
	return
}

func patternStrings(ps []rules.Pattern) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.String()
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedVMKeys iterates a server's VMs deterministically.
func sortedVMKeys(srv *host.Server) []vswitch.VMKey {
	out := make([]vswitch.VMKey, 0, len(srv.VMs))
	for k := range srv.VMs {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].IP < out[j].IP
	})
	return out
}
