package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/vswitch"
)

// Every input of the suite is generated here from the seed and from
// nothing else: the same seed gives byte-identical packets and report
// frames (bench_test.go pins that with sha256), and the program under
// test only ever sees the generated inputs, never the seed.

const (
	dpTenant     = packet.TenantID(3)
	dpVMs        = 8
	dpRulesPerVM = 1000
	dpRemotes    = 4
	dpPayload    = 64 // bytes of real TCP payload: the smallest-packet case
	dpPortBase   = 1024
	dpPortSpan   = 8192

	steadyFlows = 4096
	// One dp_newflows epoch: every one of freshFlows 5-tuples appears
	// twice, so half the packets miss the exact cache and half hit it.
	freshFlows   = 32768
	epochPackets = 2 * freshFlows
	// freshGroup 5-tuples share (src, dst, dst port) and differ in source
	// port only, so one table walk installs a megaflow that the other
	// freshGroup-1 hit. freshFlows/freshGroup megaflows per epoch stays at
	// the plane's 8192-entry megaflow limit, so it never overflow-flushes.
	freshGroup = 4
)

var (
	dpServerIP = packet.MakeIP(192, 168, 1, 10)
	dpPeerIP   = packet.MakeIP(192, 168, 1, 11)
)

// dpInputs is everything the two data-plane workloads feed the plane.
// Identities (rules, addresses, ports, payload bytes) come from the seed;
// the shape does not: every flow is allowed by the rules, and every vector
// has the same share of local and tunnelled destinations, so that two
// seeds differ in their bytes and not in how much work a vector is.
type dpInputs struct {
	vms     []vswitch.VMKey
	rules   []*rules.VMRules
	remotes []packet.IP

	// steady is dp_steady's fixed flow set, one packet per flow; of every
	// four consecutive flows one goes to a local VM and three leave
	// through the tunnel.
	steady     []*packet.Packet
	steadyKeys []vswitch.VMKey
	// epoch is dp_newflows' replay order for one epoch (epochPackets long):
	// vector j carries 16 new 5-tuples and the 16 that vector j-1
	// introduced, so every vector has the same miss/hit mix and the vector
	// latency distribution has one mode.
	epoch     []*packet.Packet
	epochKeys []vswitch.VMKey
	// verify is the untimed verdict check's packet set: random keys, so
	// unlike the timed traffic it includes denied ones.
	verify     []*packet.Packet
	verifyKeys []vswitch.VMKey
}

const verifyPackets = 4096

// genRuleSet builds one VM's ~1k port-granular security rules (plus QoS
// rules on a tenth of them) and the low-priority tenant-wide allow that
// makes unmatched ports pass.
func genRuleSet(rng *rand.Rand, ip packet.IP) *rules.VMRules {
	r := &rules.VMRules{Tenant: dpTenant, VMIP: ip}
	for i := 0; i < dpRulesPerVM; i++ {
		pat := rules.Pattern{Tenant: dpTenant, DstPort: uint16(dpPortBase + rng.Intn(dpPortSpan))}
		if rng.Intn(3) == 0 {
			pat.Proto = packet.ProtoTCP
		}
		action := rules.Allow
		if rng.Intn(100) < 15 {
			action = rules.Deny
		}
		r.Security = append(r.Security, rules.SecurityRule{Pattern: pat, Action: action, Priority: 1 + rng.Intn(8)})
		if rng.Intn(10) == 0 {
			r.QoS = append(r.QoS, rules.QoSRule{Pattern: pat, Queue: rng.Intn(4), Priority: rng.Intn(4)})
		}
	}
	r.Security = append(r.Security, rules.SecurityRule{
		Pattern: rules.Pattern{Tenant: dpTenant}, Action: rules.Allow, Priority: 0,
	})
	return r
}

func genDPInputs(seed int64) *dpInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &dpInputs{}
	byIP := make(map[packet.IP]*rules.VMRules)
	for i := 0; i < dpVMs; i++ {
		key := vswitch.VMKey{Tenant: dpTenant, IP: packet.MakeIP(10, 0, 0, byte(1+i))}
		in.vms = append(in.vms, key)
		in.rules = append(in.rules, genRuleSet(rng, key.IP))
		byIP[key.IP] = in.rules[i]
	}
	for i := 0; i < dpRemotes; i++ {
		in.remotes = append(in.remotes, packet.MakeIP(10, 0, 9, byte(1+i)))
	}
	// allowed reports whether both endpoints' rules pass the flow (the
	// plane denies if either rule-bearing endpoint does).
	allowed := func(src, dst packet.IP, sport, dport uint16) bool {
		k := packet.FlowKey{Tenant: dpTenant, Src: src, Dst: dst, SrcPort: sport, DstPort: dport, Proto: packet.ProtoTCP}
		for _, ip := range [2]packet.IP{src, dst} {
			if vm := byIP[ip]; vm != nil && vm.Evaluate(k) != rules.Allow {
				return false
			}
		}
		return true
	}

	payload := make([]byte, (steadyFlows+freshFlows+verifyPackets)*dpPayload)
	rng.Read(payload)
	mk := func(src vswitch.VMKey, dst packet.IP, sport, dport uint16) *packet.Packet {
		p := packet.NewTCP(dpTenant, src.IP, dst, sport, dport, 0)
		p.Payload, payload = payload[:dpPayload:dpPayload], payload[dpPayload:]
		return p
	}

	for i := 0; i < steadyFlows; i++ {
		src := in.vms[rng.Intn(dpVMs)]
		dst := in.remotes[rng.Intn(dpRemotes)]
		if i%4 == 3 {
			dst = in.vms[rng.Intn(dpVMs)].IP
		}
		sport, dport := uint16(20000+i), uint16(0)
		for dport == 0 || !allowed(src.IP, dst, sport, dport) {
			dport = uint16(dpPortBase + rng.Intn(dpPortSpan))
		}
		in.steadyKeys = append(in.steadyKeys, src)
		in.steady = append(in.steady, mk(src, dst, sport, dport))
	}

	// Group g of freshGroup 5-tuples: of every four consecutive groups (one
	// vector's worth of new tuples) three are tunnelled and one is local.
	// (src, dst) is distinct for the 16 groups that share g/16, and each
	// g/16 owns 16 ports of its own, so no two groups share a megaflow
	// whichever of its ports a group settles on.
	fresh := make([]*packet.Packet, freshFlows)
	freshKeys := make([]vswitch.VMKey, freshFlows)
	for g := 0; g < freshFlows/freshGroup; g++ {
		src := in.vms[g%dpVMs]
		dst := in.remotes[(g/4)%dpRemotes]
		if g%4 == 3 {
			dst = in.vms[(g/4)%dpVMs].IP
		}
		dport := uint16(dpPortBase + (g/16)*16)
		for t := 0; t < 16 && !allowed(src.IP, dst, 0, dport); t++ {
			dport++
		}
		for m := 0; m < freshGroup; m++ {
			i := g*freshGroup + m
			fresh[i], freshKeys[i] = mk(src, dst, uint16(30000+m*1000+rng.Intn(1000)), dport), src
		}
	}
	const half = packet.DefaultVectorSize / 2
	groups := freshFlows / half
	for j := 0; j < groups; j++ {
		prev := (j + groups - 1) % groups
		in.epoch = append(in.epoch, fresh[j*half:(j+1)*half]...)
		in.epochKeys = append(in.epochKeys, freshKeys[j*half:(j+1)*half]...)
		in.epoch = append(in.epoch, fresh[prev*half:(prev+1)*half]...)
		in.epochKeys = append(in.epochKeys, freshKeys[prev*half:(prev+1)*half]...)
	}

	dsts := append(append([]packet.IP(nil), in.remotes...), vmIPs(in.vms)...)
	for i := 0; i < verifyPackets; i++ {
		src := in.vms[rng.Intn(dpVMs)]
		in.verifyKeys = append(in.verifyKeys, src)
		in.verify = append(in.verify, mk(src, dsts[rng.Intn(len(dsts))],
			uint16(10000+rng.Intn(50000)), uint16(dpPortBase+rng.Intn(dpPortSpan))))
	}
	return in
}

func vmIPs(keys []vswitch.VMKey) []packet.IP {
	out := make([]packet.IP, len(keys))
	for i, k := range keys {
		out[i] = k.IP
	}
	return out
}

// packetDigest is the sha256 of every generated packet's wire bytes, in
// replay order.
func (in *dpInputs) packetDigest() (string, error) {
	h := sha256.New()
	var buf []byte
	for _, set := range [][]*packet.Packet{in.steady, in.epoch, in.verify} {
		for _, p := range set {
			b, err := p.AppendMarshal(buf[:0])
			if err != nil {
				return "", err
			}
			h.Write(b)
			buf = b
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Control-plane inputs: ctl_cycle's 16 agents report ctlPatterns flow
// aggregates between them. A window of ctlHot consecutive patterns
// (slightly more than the TCAM holds) carries high scores and slides by
// ctlSlide patterns per interval, so every cycle demotes the patterns that
// left the window and installs the ones that entered; on top of that 2 %
// of all scores are redrawn each interval.
const (
	ctlAgents   = 16
	ctlPatterns = 1536
	ctlTCAM     = 640
	ctlHot      = ctlTCAM + ctlTCAM/16
	ctlSlide    = 8
	ctlChurn    = ctlPatterns / 50
)

type ctlGen struct {
	rng      *rand.Rand
	patterns []rules.Pattern
	jitter   []float64 // per-pattern multiplier in [0.9, 1.1)
	hotStart int
}

func newCtlGen(seed int64) *ctlGen {
	g := &ctlGen{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < ctlPatterns; i++ {
		g.patterns = append(g.patterns, rules.AggregatePattern(packet.AggregateKey{
			VMIP:   packet.MakeIP(10, byte(1+i%8), byte(i>>8), byte(1+i&0xff)),
			Port:   uint16(1000 + g.rng.Intn(50000)),
			Tenant: packet.TenantID(1 + i%8),
			Dir:    packet.Egress,
		}))
		g.jitter = append(g.jitter, 0.9+0.2*g.rng.Float64())
	}
	return g
}

func (g *ctlGen) hot(i int) bool {
	d := (i - g.hotStart + ctlPatterns) % ctlPatterns
	return d < ctlHot
}

// reports advances the traffic model by one interval and returns each
// agent's demand report for it, chunked to the wire limit. Pattern i is
// reported by agent i mod ctlAgents.
func (g *ctlGen) reports(interval uint32) [][]openflow.DemandReport {
	g.hotStart = (g.hotStart + ctlSlide) % ctlPatterns
	for n := 0; n < ctlChurn; n++ {
		g.jitter[g.rng.Intn(ctlPatterns)] = 0.9 + 0.2*g.rng.Float64()
	}
	reps := make([]openflow.DemandReport, ctlAgents)
	for a := range reps {
		reps[a] = openflow.DemandReport{ServerID: uint32(1 + a), Interval: interval,
			Entries: make([]openflow.DemandEntry, 0, ctlPatterns/ctlAgents)}
	}
	for i, p := range g.patterns {
		pps := 200 * g.jitter[i]
		if g.hot(i) {
			pps = 8000 * g.jitter[i]
		}
		a := i % ctlAgents
		reps[a].Entries = append(reps[a].Entries, openflow.DemandEntry{
			Pattern: p, PPS: pps, BPS: pps * 800 * 8, Epoch: interval,
			MedianPPS: pps, MedianBPS: pps * 800 * 8, ActiveEpochs: 2,
		})
	}
	out := make([][]openflow.DemandReport, ctlAgents)
	for a := range reps {
		out[a] = openflow.ChunkDemandReport(reps[a])
	}
	return out
}

// frameDigest is the sha256 of the encoded report frames of the first n
// intervals.
func (g *ctlGen) frameDigest(n int) string {
	h := sha256.New()
	for iv := 1; iv <= n; iv++ {
		for _, chunks := range g.reports(uint32(iv)) {
			for i := range chunks {
				h.Write(openflow.Encode(&chunks[i], uint32(iv)))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Service inputs: each of svc_ingest's two agents reports svcSteady
// long-lived aggregates and a window of svcHotWindow hot ones; every
// svcHotEvery the window drops its two oldest patterns and gains two new
// ones, which the ToR must turn into express lanes.
const (
	svcAgents    = 2
	svcSteady    = 64
	svcHotWindow = 20
	svcHotStep   = 2
)

// svcPattern returns agent a's n-th pattern; hot patterns are numbered
// from svcSteady upward in the order they enter the window.
func svcPattern(a, n int) rules.Pattern {
	return rules.AggregatePattern(packet.AggregateKey{
		VMIP:   packet.MakeIP(10, 20, byte(1+a), byte(1+n%250)),
		Port:   uint16(2000 + n),
		Tenant: packet.TenantID(1 + a),
		Dir:    packet.Egress,
	})
}

// svcReport builds agent a's report for the given interval number with
// the hot window starting at hot pattern number hotFirst.
func svcReport(rng *rand.Rand, a int, interval uint32, hotFirst int) *openflow.DemandReport {
	rep := &openflow.DemandReport{ServerID: uint32(1 + a), Interval: interval,
		Entries: make([]openflow.DemandEntry, 0, svcSteady+svcHotWindow)}
	add := func(n int, pps float64) {
		pps *= 0.95 + 0.1*rng.Float64()
		rep.Entries = append(rep.Entries, openflow.DemandEntry{
			Pattern: svcPattern(a, n), PPS: pps, BPS: pps * 800 * 8, Epoch: interval,
			MedianPPS: pps, MedianBPS: pps * 800 * 8, ActiveEpochs: 2,
		})
	}
	for n := 0; n < svcSteady; n++ {
		add(n, 1000)
	}
	for n := 0; n < svcHotWindow; n++ {
		add(svcSteady+hotFirst+n, 5000)
	}
	return rep
}
