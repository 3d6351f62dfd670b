package experiments

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fps"
	"repro/internal/host"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/workload"
)

// This file holds ablations of FasTrak's design choices (see DESIGN.md):
// the pps-based score function, the TCAM capacity budget, the control
// interval, the FPS overflow allowance, and per-VM/app flow aggregation.

// fastControl returns controller settings scaled for sub-second ablation
// runs.
func fastControl(epoch time.Duration) core.Config {
	cfg := core.DefaultConfig()
	gap := epoch / 3
	if gap <= 0 {
		gap = time.Millisecond
	}
	cfg.Measure = measure.Config{
		SampleGap:         gap,
		Epoch:             epoch,
		EpochsPerInterval: 2,
		HistoryIntervals:  4,
		Aggregate:         true,
	}
	return cfg
}

// ScoreAblationResult compares offloading the high-pps mice service
// against the high-bps elephant when only one fits in hardware — the
// §3.2.4/§4.3.2 design argument (footnote 3: "MFU flows with high pps
// rates are not the same as elephant flows").
type ScoreAblationResult struct {
	// Offloaded names which flow won hardware: "mice" under FasTrak's
	// pps score, "elephant" under a bps (elephant-first) ranking.
	Offloaded string
	// MiceLatency is the mice service's mean RTT under the policy.
	MiceLatency time.Duration
	// MiceTPS is the mice service's transaction rate.
	MiceTPS float64
	// HostCPUs is the memcached server machine's CPU use.
	HostCPUs float64
}

// AblationScoreFunction runs the same workload twice: once offloading the
// mice (high pps) as FasTrak's S = n×m_pps dictates, once offloading the
// elephant (high bps) as an elephant-detection scheme would.
func AblationScoreFunction() (ppsPolicy, bpsPolicy ScoreAblationResult) {
	run := func(offloadElephant bool) ScoreAblationResult {
		c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: model.VSwitchConfig{}, Seed: 71})
		miceCl, _ := c.AddVM(0, 5, packet.MustParseIP("10.5.0.1"), 4, nil)
		miceSv, _ := c.AddVM(1, 5, packet.MustParseIP("10.5.0.2"), 4, nil)
		elCl, _ := c.AddVM(0, 5, packet.MustParseIP("10.5.0.3"), 4, nil)
		elSv, _ := c.AddVM(1, 5, packet.MustParseIP("10.5.0.4"), 4, nil)
		for _, ip := range []string{"10.5.0.1", "10.5.0.2", "10.5.0.3", "10.5.0.4"} {
			idx := 0
			if ip == "10.5.0.2" || ip == "10.5.0.4" {
				idx = 1
			}
			if err := c.TOR.RouteLike(packet.MustParseIP(ip), c.Servers[idx].IP); err != nil {
				panic(err)
			}
		}
		// Mice: 64-byte RR at high transaction rates (high pps, low bps).
		mice := &workload.RR{Client: miceCl, Server: miceSv, Port: 7000, Size: 64, Threads: 3, Burst: 16}
		mice.Start(c.Eng)
		// Elephant: 32000-byte stream (high bps, low wire pps relative
		// to its byte volume, and few distinct transactions).
		el := &workload.Stream{Client: elCl, Server: elSv, Port: 7001, Size: 32000, Threads: 1}
		el.Start(c.Eng)

		rig := &microRig{c: c, clientVM: miceCl, serverVM: miceSv}
		if offloadElephant {
			rig = &microRig{c: c, clientVM: elCl, serverVM: elSv}
		}
		rig.steerAllToVFService(5, rigPort(offloadElephant))

		c.Eng.RunUntil(300 * time.Millisecond)
		mice.Stop()
		el.Stop()
		name := "mice"
		if offloadElephant {
			name = "elephant"
		}
		return ScoreAblationResult{
			Offloaded:   name,
			MiceLatency: mice.Latency.Mean(),
			MiceTPS:     mice.TPS(300 * time.Millisecond),
			HostCPUs:    c.Servers[1].TotalCPUs(300 * time.Millisecond),
		}
	}
	return run(false), run(true)
}

func rigPort(elephant bool) uint16 {
	if elephant {
		return 7001
	}
	return 7000
}

// steerAllToVFService installs the express lane for one service port only.
func (r *microRig) steerAllToVFService(tenant packet.TenantID, port uint16) {
	for _, dir := range []packet.Direction{packet.Ingress, packet.Egress} {
		agg := packet.AggregateKey{VMIP: r.serverVM.Key.IP, Port: port, Tenant: tenant, Dir: dir}
		installAggregate(r.c, agg, []*host.VM{r.clientVM, r.serverVM})
	}
}

// TCAMAblationResult is one point of the capacity sweep.
type TCAMAblationResult struct {
	Capacity int
	// Offloaded is how many patterns ended up in hardware.
	Offloaded int
	// MeanLatency is the mean RTT across all services.
	MeanLatency time.Duration
}

// AblationTCAMCapacity sweeps the hardware rule budget against a rack
// running more hot services than hardware can hold — the "this gap is
// inherent" premise (§1). Latency improves as capacity admits more of the
// traffic until every service fits.
func AblationTCAMCapacity(capacities []int) []TCAMAblationResult {
	var out []TCAMAblationResult
	for _, cap := range capacities {
		c := cluster.New(cluster.Config{
			Servers: 2, VSwitchCfg: model.VSwitchConfig{Tunneling: true},
			TCAMCapacity: cap, Seed: 72,
		})
		mgr := core.Attach(c, fastControl(25*time.Millisecond))
		const services = 8
		var rrs []*workload.RR
		for i := 0; i < services; i++ {
			cl, _ := c.AddVM(0, 6, packet.MakeIP(10, 6, 0, byte(10+2*i)), 2, nil)
			sv, _ := c.AddVM(1, 6, packet.MakeIP(10, 6, 0, byte(11+2*i)), 2, nil)
			rr := &workload.RR{Client: cl, Server: sv, Port: uint16(8000 + i), Size: 200,
				Threads: 1, Burst: 4}
			rr.Start(c.Eng)
			rrs = append(rrs, rr)
		}
		mgr.Start()
		c.Eng.RunUntil(400 * time.Millisecond)
		mgr.Stop()
		var sum time.Duration
		var n int
		for _, rr := range rrs {
			rr.Stop()
			sum += rr.Latency.Mean()
			n++
		}
		out = append(out, TCAMAblationResult{
			Capacity:    cap,
			Offloaded:   len(mgr.OffloadedPatterns()),
			MeanLatency: sum / time.Duration(n),
		})
	}
	return out
}

// IntervalAblationResult is one point of the control-interval sweep.
type IntervalAblationResult struct {
	Epoch time.Duration
	// ReactionTime is how long after traffic starts the first offload
	// lands ("The control interval only decides how soon FasTrak reacts
	// to the frequently seen flow", §4.3.2).
	ReactionTime time.Duration
}

// AblationControlInterval sweeps the epoch T (§5.2 uses 5 s and 0.5 s).
func AblationControlInterval(epochs []time.Duration) []IntervalAblationResult {
	var out []IntervalAblationResult
	for _, epoch := range epochs {
		c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: 73})
		cl, _ := c.AddVM(0, 8, packet.MustParseIP("10.8.0.1"), 4, nil)
		sv, _ := c.AddVM(1, 8, packet.MustParseIP("10.8.0.2"), 4, nil)
		mgr := core.Attach(c, fastControl(epoch))
		rr := &workload.RR{Client: cl, Server: sv, Port: 9000, Size: 100, Threads: 2, Burst: 8}
		rr.Start(c.Eng)
		mgr.Start()
		reaction := time.Duration(0)
		c.Eng.Every(time.Millisecond, func() {
			if reaction == 0 && len(mgr.OffloadedPatterns()) > 0 {
				reaction = c.Eng.Now()
			}
		})
		c.Eng.RunUntil(20 * epoch)
		mgr.Stop()
		rr.Stop()
		out = append(out, IntervalAblationResult{Epoch: epoch, ReactionTime: reaction})
	}
	return out
}

// OverflowAblationResult is one point of the FPS overflow sweep.
type OverflowAblationResult struct {
	OverflowFraction float64
	// ConvergedHardBps is the hardware share after demand shifts
	// entirely to the hardware path.
	ConvergedHardBps float64
	// Steps is how many adjustment rounds it took for the hardware
	// share to reach 85% of the aggregate.
	Steps int
	// ThrottledFraction is the share of offered traffic clipped by the
	// stale limits while FPS converged — the cost the overflow headroom
	// O buys down (§4.3.2).
	ThrottledFraction float64
}

// AblationFPSOverflow shows the overflow allowance O at work: while the
// split converges after demand shifts entirely to the hardware path, the
// installed limit Rh = Lh + O clips less traffic the larger O is.
func AblationFPSOverflow(fractions []float64) []OverflowAblationResult {
	var out []OverflowAblationResult
	const aggregate = 1e9
	for _, frac := range fractions {
		s := fps.NewSplitter(aggregate)
		s.OverflowBps = frac * aggregate
		lim := s.Adjust(fps.Demand{RateBps: aggregate / 2}, fps.Demand{RateBps: aggregate / 2})
		steps := 0
		offered, clipped := 0.0, 0.0
		for i := 0; i < 200; i++ {
			steps = i + 1
			obsHard := aggregate
			if obsHard > lim.HardwareWithOverflow {
				obsHard = lim.HardwareWithOverflow
			}
			offered += aggregate
			clipped += aggregate - obsHard
			lim = s.Adjust(
				fps.Demand{RateBps: 0},
				fps.Demand{RateBps: obsHard, MaxedOut: obsHard >= lim.HardwareWithOverflow*0.95},
			)
			if lim.HardwareBps >= 0.85*aggregate {
				break
			}
		}
		out = append(out, OverflowAblationResult{
			OverflowFraction:  frac,
			ConvergedHardBps:  lim.HardwareBps,
			Steps:             steps,
			ThrottledFraction: clipped / offered,
		})
	}
	return out
}

// AggregationAblationResult compares per-flow vs per-VM/app measurement.
type AggregationAblationResult struct {
	Aggregate bool
	// PlacerRules is the total wildcard rules installed across flow
	// placers (control-plane state cost).
	PlacerRules int
	// HardwareRules is how many TCAM entries covered the traffic —
	// the fast-path memory cost the aggregation rule of thumb saves
	// (§4.3.1).
	HardwareRules int
}

// AblationAggregation runs many short client flows against one service
// and compares the measurement/rule state with and without the per-VM/app
// aggregation rule of thumb (§4.3.1).
func AblationAggregation() (aggregated, exact AggregationAblationResult) {
	run := func(agg bool) AggregationAblationResult {
		c := cluster.New(cluster.Config{Servers: 2, VSwitchCfg: model.VSwitchConfig{Tunneling: true}, Seed: 74})
		sv, _ := c.AddVM(1, 9, packet.MustParseIP("10.9.0.2"), 4, nil)
		sv.BindApp(7777, host.AppFunc(func(vm *host.VM, p *packet.Packet) {
			vm.Send(p.IP.Src, 7777, p.TCP.SrcPort, 200, host.SendOptions{Seq: p.Meta.Seq}, nil)
		}))
		// 16 client VMs, several ephemeral ports each.
		var clients []*host.VM
		for i := 0; i < 16; i++ {
			cl, _ := c.AddVM(0, 9, packet.MakeIP(10, 9, 1, byte(10+i)), 2, nil)
			clients = append(clients, cl)
		}
		cfg := fastControl(25 * time.Millisecond)
		cfg.Measure.Aggregate = agg
		mgr := core.Attach(c, cfg)
		for ci, cl := range clients {
			cl := cl
			port := uint16(50000 + ci*4)
			c.Eng.Every(time.Duration(500+ci*37)*time.Microsecond, func() {
				cl.Send(sv.Key.IP, port+uint16(c.Eng.Now()/time.Millisecond)%4, 7777, 64, host.SendOptions{}, nil)
			})
		}
		mgr.Start()
		c.Eng.RunUntil(400 * time.Millisecond)
		mgr.Stop()
		placerRules := sv.Placer.RuleCount()
		for _, cl := range clients {
			placerRules += cl.Placer.RuleCount()
		}
		return AggregationAblationResult{
			Aggregate:     agg,
			PlacerRules:   placerRules,
			HardwareRules: c.TOR.TCAMUsed(),
		}
	}
	return run(true), run(false)
}

// installAggregate is a helper installing the placer+ToR state for one
// aggregate on the given VMs.
func installAggregate(c *cluster.Cluster, agg packet.AggregateKey, vms []*host.VM) {
	pat := aggPattern(agg)
	for _, vm := range vms {
		vm.Placer.HandleMessage(flowModVF(pat), 1, nil)
	}
	if err := c.TOR.InstallACL(tcamAllow(pat)); err != nil {
		panic(err)
	}
}

// aggPattern, flowModVF and tcamAllow are small builders shared by the
// ablation rigs.
func aggPattern(a packet.AggregateKey) rules.Pattern { return rules.AggregatePattern(a) }

func flowModVF(p rules.Pattern) *openflow.FlowMod {
	return &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: p, Out: openflow.PathVF, Priority: 10}
}

func tcamAllow(p rules.Pattern) *rules.TCAMEntry {
	return &rules.TCAMEntry{Pattern: p, Action: rules.Allow, Priority: 5}
}
