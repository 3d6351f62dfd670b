package vswitch

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

// planeRuleSet builds a deterministic randomized rule set for a VM:
// port-specific allows/denies plus a low-priority tenant-wide allow, so
// verdicts exercise priorities, masks and the deny-wins merge.
func planeRuleSet(rng *rand.Rand, tenant packet.TenantID, ip packet.IP) *rules.VMRules {
	r := &rules.VMRules{Tenant: tenant, VMIP: ip}
	n := 2 + rng.Intn(6)
	for i := 0; i < n; i++ {
		pat := rules.Pattern{Tenant: tenant}
		if rng.Intn(2) == 0 {
			pat.DstPort = uint16(8000 + rng.Intn(8))
		}
		if rng.Intn(3) == 0 {
			pat.Proto = packet.ProtoTCP
		}
		r.Security = append(r.Security, rules.SecurityRule{
			Pattern:  pat,
			Action:   rules.Action(rng.Intn(2)),
			Priority: 1 + rng.Intn(8),
		})
		if rng.Intn(2) == 0 {
			r.QoS = append(r.QoS, rules.QoSRule{Pattern: pat, Queue: rng.Intn(4), Priority: rng.Intn(4)})
		}
	}
	r.Security = append(r.Security, rules.SecurityRule{
		Pattern: rules.Pattern{Tenant: tenant}, Action: rules.Allow, Priority: 0,
	})
	return r
}

// TestPlaneVerdictParity drives both harnesses of the flow core, the
// sharded plane and the deterministic Switch, with the same 2,000 packets
// over randomized rules and checks each one's verdicts (through compiled
// rules, exact and megaflow caches) against the seed linear scan of the
// endpoints' rules: Switch ≡ plane ≡ linear.
func TestPlaneVerdictParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
	type rec struct {
		allow bool
		queue int
	}
	got := map[packet.FlowKey]rec{}
	pl := NewShardedPlane(PlaneConfig{
		Shards: 1, ServerIP: srvA,
		OnVerdict: func(_ int, k packet.FlowKey, allow bool, queue int) {
			got[k] = rec{allow, queue}
		},
	})
	var keys []VMKey
	vmRules := map[VMKey]*rules.VMRules{}
	local := map[packet.FlowKey]int{} // packets the switch delivers to a local VM, by flow
	for i := 0; i < 6; i++ {
		key := VMKey{Tenant: 3, IP: packet.MakeIP(10, 0, 0, byte(1+i))}
		r := planeRuleSet(rng, 3, key.IP)
		sw.AttachVM(key, r, fabric.PortFunc(func(p *packet.Packet) { local[p.Key()]++ }), Inline)
		pl.AttachVM(key, r)
		keys, vmRules[key] = append(keys, key), r
	}
	// The reference: the seed linear scan of each attached endpoint's rules,
	// source first, deny wins, highest queue.
	linear := func(k packet.FlowKey) rec {
		v := rec{allow: true}
		for _, ip := range [2]packet.IP{k.Src, k.Dst} {
			r, ok := vmRules[VMKey{Tenant: k.Tenant, IP: ip}]
			if !ok || len(r.Security) == 0 {
				continue
			}
			if r.EvaluateLinear(k) != rules.Allow {
				return rec{}
			}
			v.queue = max(v.queue, r.QueueForLinear(k))
		}
		return v
	}
	inj := pl.NewInjector()

	want := map[packet.FlowKey]rec{}
	sent := map[packet.FlowKey]int{}
	for i := 0; i < 2000; i++ {
		src := keys[rng.Intn(len(keys))]
		var dst packet.IP
		if rng.Intn(2) == 0 {
			dst = keys[rng.Intn(len(keys))].IP // local, rule-bearing peer
		} else {
			dst = packet.MakeIP(10, 0, 9, byte(rng.Intn(8))) // remote
		}
		p := packet.NewTCP(3, src.IP, dst, uint16(40000+rng.Intn(64)), uint16(8000+rng.Intn(10)), 128)
		k := p.Key()
		want[k] = linear(k)
		sent[k]++
		inj.Egress(src, p)
		sw.OutputFromVM(src, p)
	}
	inj.Flush()
	eng.Run()

	if len(got) != len(want) {
		t.Fatalf("plane classified %d distinct flows, reference saw %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("flow %v never classified by plane", k)
		}
		if g != w {
			t.Fatalf("flow %v: plane verdict %+v, reference %+v", k, g, w)
		}
	}
	c := pl.Counters()
	if c.Packets != 2000 {
		t.Fatalf("plane processed %d packets, want 2000", c.Packets)
	}
	if acc := c.Tx + c.Denied + c.Unrouted + c.Drops.Total(); acc != c.Packets {
		t.Fatalf("conservation violated: packets=%d accounted=%d (%+v)", c.Packets, acc, c)
	}

	// The switch shows its verdicts by what it does with each flow's packets:
	// an allowed flow's all reach the uplink or a local VM, a denied flow's
	// none; and the entry it cached holds the queue.
	delivered := local
	for _, p := range up.pkts {
		delivered[p.Key()]++
	}
	for k, w := range want {
		if n := delivered[k]; w.allow && n != sent[k] || !w.allow && n != 0 {
			t.Fatalf("flow %v: switch delivered %d of %d packets, reference verdict %+v", k, n, sent[k], w)
		}
		e := sw.core.exact.lookup(k, flowSlotHash(k))
		if e == nil {
			t.Fatalf("flow %v has no exact entry in the switch", k)
		}
		if v := e.verdict(); (rec{v.allow, v.queue}) != w {
			t.Fatalf("flow %v: switch cached %+v, reference %+v", k, v, w)
		}
	}
	if tel := sw.Counters(); tel.Tx+tel.Denied != 2000 || tel.Denied != c.Denied {
		t.Fatalf("switch counters %+v, plane denied %d", tel, c.Denied)
	}
}

// TestPlaneEpochFlush checks that control-plane mutations republish epochs
// and the shard flushes its caches: a flow's verdict flips after its VM's
// rules change, and the flush is counted.
func TestPlaneEpochFlush(t *testing.T) {
	allow := &rules.VMRules{Tenant: 3, VMIP: vmA.IP, Security: []rules.SecurityRule{
		{Pattern: rules.Pattern{Tenant: 3}, Action: rules.Allow, Priority: 1},
	}}
	var verdicts []bool
	pl := NewShardedPlane(PlaneConfig{
		Shards:    1,
		OnVerdict: func(_ int, _ packet.FlowKey, a bool, _ int) { verdicts = append(verdicts, a) },
	})
	pl.AttachVM(vmA, allow)
	inj := pl.NewInjector()
	send := func() {
		inj.Egress(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 100))
		inj.Flush()
	}

	send() // epoch 1: allowed
	seq := pl.pub.Load().Seq

	deny := &rules.VMRules{Tenant: 3, VMIP: vmA.IP, Security: []rules.SecurityRule{
		{Pattern: rules.Pattern{Tenant: 3}, Action: rules.Deny, Priority: 1},
	}}
	pl.AttachVM(vmA, deny)
	if pl.pub.Load().Seq == seq {
		t.Fatal("AttachVM did not publish a new epoch")
	}
	send() // epoch 2: denied — stale cached verdict must not survive

	if len(verdicts) != 2 || !verdicts[0] || verdicts[1] {
		t.Fatalf("verdicts across epoch change = %v, want [true false]", verdicts)
	}
	c := pl.Counters()
	if c.EpochFlushes == 0 {
		t.Fatal("shard never flushed on epoch change")
	}
	if c.Denied != 1 || c.Tx != 1 {
		t.Fatalf("counters %+v, want exactly one tx then one denied", c)
	}
}

// TestPlaneTunnelAndLocalOutcomes checks the egress arm: local vport
// delivery, VXLAN-tunneled transmit, and no-tunnel unrouted accounting.
func TestPlaneTunnelAndLocalOutcomes(t *testing.T) {
	pl := NewShardedPlane(PlaneConfig{Shards: 1, Tunneling: true, ServerIP: srvA})
	pl.AttachVM(vmA, nil)
	pl.AttachVM(vmB, nil)
	pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: packet.MustParseIP("10.0.9.9"), Remote: srvB})
	inj := pl.NewInjector()
	inj.Egress(vmA, sendPkt(3, vmA.IP, vmB.IP, 80, 100))                                                                            // local
	inj.Egress(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 100))                                                    // tunneled
	inj.Egress(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.77.7"), 80, 100))                                                   // no tunnel
	inj.Egress(VMKey{Tenant: 3, IP: packet.MustParseIP("10.0.0.99")}, sendPkt(3, packet.MustParseIP("10.0.0.99"), vmB.IP, 80, 100)) // no vport
	inj.Flush()

	c := pl.Counters()
	if c.LocalTx != 1 || c.Tx != 2 || c.Unrouted != 2 {
		t.Fatalf("counters %+v, want localtx=1 tx=2 unrouted=2", c)
	}
	if acc := c.Tx + c.Denied + c.Unrouted + c.Drops.Total(); acc != c.Packets {
		t.Fatalf("conservation violated: %+v", c)
	}
}

// TestPlaneShapingDrops checks per-shard htb enforcement on the virtual
// clock: a tight VIF limit drops the overflow as Shape, and conservation
// still closes.
func TestPlaneShapingDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	pl := NewShardedPlane(PlaneConfig{Shards: 1, Now: eng.Now})
	pl.AttachVM(vmA, nil)
	pl.SetVIFLimit(vmA, 80_000) // 10 KB/s
	inj := pl.NewInjector()
	for i := 0; i < 100; i++ {
		inj.Egress(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 1400))
	}
	inj.Flush()
	c := pl.Counters()
	if c.Drops.Shape == 0 {
		t.Fatalf("no shape drops under a 10KB/s limit: %+v", c)
	}
	if c.Tx == 0 {
		t.Fatalf("limit dropped everything (burst should pass): %+v", c)
	}
	if acc := c.Tx + c.Denied + c.Unrouted + c.Drops.Total(); acc != c.Packets {
		t.Fatalf("conservation violated: %+v", c)
	}
}

// TestPlaneInlineDeterminism runs the identical submission sequence
// through two fresh inline planes and requires bit-identical counters and
// flow snapshots — the determinism contract the single-shard default mode
// must keep for the sim/experiment/chaos harness.
func TestPlaneInlineDeterminism(t *testing.T) {
	run := func() (PlaneCounters, map[packet.FlowKey]planeFlow) {
		rng := rand.New(rand.NewSource(99))
		pl := NewShardedPlane(PlaneConfig{Shards: 1, Tunneling: true, ServerIP: srvA})
		var keys []VMKey
		for i := 0; i < 4; i++ {
			key := VMKey{Tenant: 3, IP: packet.MakeIP(10, 0, 0, byte(1+i))}
			pl.AttachVM(key, planeRuleSet(rng, 3, key.IP))
			keys = append(keys, key)
		}
		pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: packet.MustParseIP("10.0.9.9"), Remote: srvB})
		inj := pl.NewInjector()
		for i := 0; i < 3000; i++ {
			src := keys[rng.Intn(len(keys))]
			dst := packet.MustParseIP("10.0.9.9")
			if rng.Intn(3) == 0 {
				dst = keys[rng.Intn(len(keys))].IP
			}
			inj.Egress(src, packet.NewTCP(3, src.IP, dst, uint16(40000+rng.Intn(32)), uint16(8000+rng.Intn(8)), 200))
			if rng.Intn(500) == 0 {
				pl.Invalidate(rules.Pattern{Tenant: 3})
			}
		}
		inj.Flush()
		flows := map[packet.FlowKey]planeFlow{}
		for _, f := range flowSnapshot(pl) {
			flows[f.Key] = f
		}
		return pl.Counters(), flows
	}

	c1, f1 := run()
	c2, f2 := run()
	if c1 != c2 {
		t.Fatalf("counters diverged across identical runs:\n%+v\n%+v", c1, c2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("flow snapshots diverged: %d vs %d flows", len(f1), len(f2))
	}
	for k, a := range f1 {
		if b, ok := f2[k]; !ok || a != b {
			t.Fatalf("flow %v diverged: %+v vs %+v", k, a, b)
		}
	}
}

// TestPlaneWorkerModeBasics exercises the 4-shard worker configuration
// end to end on a small workload: everything submitted is accounted,
// barriers drain, and a flow's packets all land on one shard.
func TestPlaneWorkerModeBasics(t *testing.T) {
	pl := NewShardedPlane(PlaneConfig{Shards: 4, Tunneling: true, ServerIP: srvA})
	defer pl.Close()
	tenant := packet.TenantID(3)
	src := packet.MustParseIP("10.0.0.1")
	key := VMKey{Tenant: tenant, IP: src}
	pl.AttachVM(key, nil)
	dst := packet.MustParseIP("10.0.9.9")
	pl.SetTunnel(rules.TunnelMapping{Tenant: tenant, VMIP: dst, Remote: srvB})

	inj := pl.NewInjector()
	const total = 500
	for i := 0; i < total; i++ {
		// 16 distinct flows; each must land wholly on one shard.
		inj.Egress(key, packet.NewTCP(tenant, src, dst, uint16(40000+i%16), 80, 100))
	}
	inj.Flush()
	pl.Barrier()

	c := pl.Counters()
	if c.Packets != total || c.Tx != total {
		t.Fatalf("counters %+v, want %d packets all transmitted", c, total)
	}
	perFlowShard := map[packet.FlowKey]int{}
	for sh, s := range pl.shards {
		s.core.exact.each(func(e *flowEntry) {
			if prev, dup := perFlowShard[e.key]; dup && prev != sh {
				t.Fatalf("flow %v present on shards %d and %d", e.key, prev, sh)
			}
			perFlowShard[e.key] = sh
		})
	}
	if len(perFlowShard) != 16 {
		t.Fatalf("expected 16 distinct flows across shards, got %d", len(perFlowShard))
	}
	if activeFlows(pl) != 16 {
		t.Fatalf("ActiveFlows = %d, want 16", activeFlows(pl))
	}
}

// TestPlaneVectorBatching checks the vector plumbing itself: target-size
// flushes, partial flushes, and pooled vector reuse via the plane's
// vector counter.
func TestPlaneVectorBatching(t *testing.T) {
	pl := NewShardedPlane(PlaneConfig{Shards: 1, VectorSize: 8})
	key := VMKey{Tenant: 3, IP: packet.MustParseIP("10.0.0.1")}
	pl.AttachVM(key, nil)
	inj := pl.NewInjector()
	for i := 0; i < 20; i++ { // 8 + 8 + partial 4
		inj.Egress(key, sendPkt(3, key.IP, packet.MustParseIP("10.0.9.9"), 80, 100))
	}
	if got := pl.Counters().Vectors; got != 2 {
		t.Fatalf("full-vector flushes = %d, want 2 before explicit Flush", got)
	}
	inj.Flush()
	c := pl.Counters()
	if c.Vectors != 3 || c.Packets != 20 {
		t.Fatalf("counters %+v, want 3 vectors / 20 packets", c)
	}
}

// planeFlow is one flow's merged exact-cache accounting.
type planeFlow struct {
	Key     packet.FlowKey
	Allow   bool
	Queue   int
	Packets uint64
	Bytes   uint64
}

// flowSnapshot merges every shard's exact-cache entries. Call it only
// with no vectors in flight: it walks shard-private tables.
func flowSnapshot(pl *ShardedPlane) []planeFlow {
	var out []planeFlow
	for _, sh := range pl.shards {
		sh.core.exact.each(func(e *flowEntry) {
			v := e.verdict()
			out = append(out, planeFlow{Key: e.key, Allow: v.allow, Queue: v.queue, Packets: e.pkts, Bytes: e.bytes})
		})
	}
	return out
}

// activeFlows returns the summed exact-cache population, under the same
// condition as flowSnapshot.
func activeFlows(pl *ShardedPlane) int {
	n := 0
	for _, sh := range pl.shards {
		n += sh.core.exact.live
	}
	return n
}

// removeTunnel publishes a tunnel mapping removal.
func removeTunnel(pl *ShardedPlane, tenant packet.TenantID, vmIP packet.IP) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.tunnels.Remove(tenant, vmIP)
	pl.publishLocked()
}
