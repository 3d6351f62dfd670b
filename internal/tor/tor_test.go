package tor

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

var (
	torA  = packet.MustParseIP("192.168.100.1")
	torB  = packet.MustParseIP("192.168.100.2")
	srv1  = packet.MustParseIP("192.168.1.10")
	srv2  = packet.MustParseIP("192.168.1.11")
	vmX   = packet.MustParseIP("10.0.0.1") // tenant 3 on srv1
	vmY   = packet.MustParseIP("10.0.0.2") // tenant 3 on srv2
	vlan3 = packet.VLANID(103)
)

type capture struct{ pkts []*packet.Packet }

func (c *capture) Input(p *packet.Packet) { c.pkts = append(c.pkts, p) }

// rig builds a single ToR with tenant 3 configured, vmX/vmY local on
// srv1/srv2, an allow-all-tenant-3 ACL, and capture ports on both access
// links.
func rig(t *testing.T, eng *sim.Engine, tcamCap int) (*TOR, *capture, *capture) {
	t.Helper()
	tr := New(eng, torA, tcamCap, time.Microsecond)
	if err := tr.ConfigureTenant(3, vlan3); err != nil {
		t.Fatal(err)
	}
	acc1, acc2 := &capture{}, &capture{}
	tr.AddRoute(srv1, acc1)
	tr.AddRoute(srv2, acc2)
	if err := tr.RegisterLocalVM(3, vmX, srv1); err != nil {
		t.Fatal(err)
	}
	if err := tr.RegisterLocalVM(3, vmY, srv2); err != nil {
		t.Fatal(err)
	}
	// Both VMs homed here: GRE hairpins locally.
	tr.SetVRFTunnel(3, vmX, torA)
	tr.SetVRFTunnel(3, vmY, torA)
	return tr, acc1, acc2
}

func taggedPacket(dstPort uint16, size int) *packet.Packet {
	p := packet.NewTCP(0, vmX, vmY, 40000, dstPort, size)
	p.VLAN = &packet.VLAN{ID: vlan3}
	return p
}

func allowEntry(k packet.FlowKey) *rules.TCAMEntry {
	return &rules.TCAMEntry{Pattern: rules.ExactPattern(k), Action: rules.Allow, Priority: 5}
}

func keyOf(dstPort uint16) packet.FlowKey {
	return packet.FlowKey{Src: vmX, Dst: vmY, SrcPort: 40000, DstPort: dstPort,
		Proto: packet.ProtoTCP, Tenant: 3}
}

func TestExpressLaneEndToEnd(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, acc2 := rig(t, eng, 100)
	if err := tr.InstallACL(allowEntry(keyOf(11211))); err != nil {
		t.Fatal(err)
	}
	tr.Input(taggedPacket(11211, 640))
	eng.Run()
	if len(acc2.pkts) != 1 {
		t.Fatalf("server 2 got %d packets", len(acc2.pkts))
	}
	out := acc2.pkts[0]
	if out.VLAN == nil || out.VLAN.ID != vlan3 {
		t.Errorf("delivered without tenant VLAN tag: %+v", out.VLAN)
	}
	if out.IP.Dst != vmY || out.Tenant != 3 || out.PayloadLen() != 640 {
		t.Errorf("inner wrong: dst=%v tenant=%d len=%d", out.IP.Dst, out.Tenant, out.PayloadLen())
	}
	_, _, _, _, greRx, greTx := tr.Counters()
	if greRx != 1 || greTx != 1 {
		t.Errorf("gre counters rx=%d tx=%d (hairpin must encap+decap)", greRx, greTx)
	}
}

func TestDefaultDenyAtTOR(t *testing.T) {
	// "If a malicious VM sends disallowed traffic via an SR-IOV
	// interface ... the traffic will hit the default rule and be
	// dropped at the TOR."
	eng := sim.NewEngine(1)
	tr, _, acc2 := rig(t, eng, 100)
	tr.Input(taggedPacket(22, 100)) // no ACL installed
	eng.Run()
	if len(acc2.pkts) != 0 {
		t.Fatal("disallowed traffic forwarded")
	}
	aclDrops, _, _, _, _, _ := tr.Counters()
	if aclDrops != 1 {
		t.Errorf("aclDrops = %d", aclDrops)
	}
}

func TestDenyRuleAtTOR(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, acc2 := rig(t, eng, 100)
	e := allowEntry(keyOf(22))
	e.Action = rules.Deny
	tr.InstallACL(e)
	tr.Input(taggedPacket(22, 100))
	eng.Run()
	if len(acc2.pkts) != 0 {
		t.Error("denied traffic forwarded")
	}
}

func TestUnknownVLANDropped(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, acc2 := rig(t, eng, 100)
	p := taggedPacket(11211, 100)
	p.VLAN.ID = 999
	tr.Input(p)
	eng.Run()
	if len(acc2.pkts) != 0 {
		t.Error("unknown VLAN forwarded")
	}
	_, _, noVRF, _, _, _ := tr.Counters()
	if noVRF != 1 {
		t.Errorf("noVRF = %d", noVRF)
	}
}

func TestTCAMCapacityLimitsOffload(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, _ := rig(t, eng, 2)
	if err := tr.InstallACL(allowEntry(keyOf(1))); err != nil {
		t.Fatal(err)
	}
	if err := tr.InstallACL(allowEntry(keyOf(2))); err != nil {
		t.Fatal(err)
	}
	if err := tr.InstallACL(allowEntry(keyOf(3))); err == nil {
		t.Error("TCAM overflow accepted")
	}
	if tr.TCAMCapacity() != 2 || tr.TCAMUsed() != 2 {
		t.Errorf("capacity=%d used=%d", tr.TCAMCapacity(), tr.TCAMUsed())
	}
	tr.RemoveACL(rules.ExactPattern(keyOf(1)))
	if tr.TCAMCapacity() != 2 || tr.TCAMUsed() != 1 {
		t.Errorf("after remove capacity=%d used=%d", tr.TCAMCapacity(), tr.TCAMUsed())
	}
}

// HasRule is the switch agent's idempotent-re-assert check: a rule is
// there only if pattern, priority and queue all match, and asking copies
// nothing.
func TestHasRuleMatchesRulesWithoutCopying(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, _ := rig(t, eng, 4)
	e := allowEntry(keyOf(1))
	e.Queue = 2
	if err := tr.InstallACL(e); err != nil {
		t.Fatal(err)
	}
	have := RuleInfo{Pattern: e.Pattern, Priority: 5, Queue: 2}
	for _, tc := range []struct {
		ri   RuleInfo
		want bool
	}{
		{have, true},
		{RuleInfo{Pattern: e.Pattern, Priority: 6, Queue: 2}, false},
		{RuleInfo{Pattern: e.Pattern, Priority: 5, Queue: 0}, false},
		{RuleInfo{Pattern: rules.ExactPattern(keyOf(2)), Priority: 5, Queue: 2}, false},
	} {
		if got := tr.HasRule(tc.ri); got != tc.want {
			t.Errorf("HasRule(%+v) = %v, want %v", tc.ri, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { tr.HasRule(have) }); n != 0 {
		t.Errorf("HasRule allocates %v times per call", n)
	}
}

func TestHardwareRateLimitPolices(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, acc2 := rig(t, eng, 100)
	tr.InstallACL(allowEntry(keyOf(11211)))
	tr.SetVFLimit(3, vmX, Egress, 1e6) // 1 Mbps
	// Burst of 100 × ~700B packets ≈ 560 kbits >> burst allowance.
	for i := 0; i < 100; i++ {
		tr.Input(taggedPacket(11211, 640))
	}
	eng.Run()
	_, rateDrops, _, _, _, _ := tr.Counters()
	if rateDrops == 0 {
		t.Error("no policing drops at 1 Mbps")
	}
	if len(acc2.pkts)+int(rateDrops) != 100 {
		t.Errorf("delivered %d + dropped %d != 100", len(acc2.pkts), rateDrops)
	}
	// Raising the limit restores delivery.
	tr.SetVFLimit(3, vmX, Egress, 0)
	tr.Input(taggedPacket(11211, 640))
	eng.Run()
	if len(acc2.pkts)+int(rateDrops) != 101 {
		t.Error("removing limit did not restore forwarding")
	}
}

func TestStatsObserveOffloadedFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, _ := rig(t, eng, 100)
	tr.InstallACL(allowEntry(keyOf(11211)))
	for i := 0; i < 7; i++ {
		tr.Input(taggedPacket(11211, 640))
	}
	eng.Run()
	st := tr.Stats()
	if len(st) != 1 {
		t.Fatalf("stats has %d entries", len(st))
	}
	// Each packet hits the ACL on the VF->TOR pass and again at GRE
	// termination (hairpin), so counters reflect both pipeline passes.
	if st[0].Packets != 14 {
		t.Errorf("packets = %d, want 14 (7 both ways through the hairpin)", st[0].Packets)
	}
}

func TestGRETransitForwarded(t *testing.T) {
	// A GRE packet not addressed to this ToR is forwarded by outer IP.
	eng := sim.NewEngine(1)
	tr, _, _ := rig(t, eng, 100)
	fabricPort := &capture{}
	tr.AddRoute(torB, fabricPort)
	p := packet.NewUDP(0, torB, torB, 1, 2, 64)
	p.IP.Src = torA
	p.IP.Proto = packet.ProtoGRE
	p.UDP = nil
	tr.Input(p)
	eng.Run()
	if len(fabricPort.pkts) != 1 {
		t.Error("GRE transit not forwarded")
	}
}

func TestPlainRoutedTraffic(t *testing.T) {
	// VXLAN outers between servers route normally.
	eng := sim.NewEngine(1)
	tr, acc1, _ := rig(t, eng, 100)
	p := packet.NewUDP(0, srv2, srv1, 55555, packet.VXLANPort, 200)
	tr.Input(p)
	eng.Run()
	if len(acc1.pkts) != 1 {
		t.Error("routed traffic not delivered to access port")
	}
}

func TestVLANReuseAcrossTenantsRejected(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng, torA, 10, 0)
	if err := tr.ConfigureTenant(3, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.ConfigureTenant(4, 100); err == nil {
		t.Error("VLAN shared across tenants accepted")
	}
	// Re-configuring the same binding is idempotent.
	if err := tr.ConfigureTenant(3, 100); err != nil {
		t.Errorf("idempotent reconfigure failed: %v", err)
	}
}

func TestTenantIsolationAcrossVRFs(t *testing.T) {
	// Tenant 4 reuses vmX/vmY addresses (C1); its packets must not
	// match tenant 3's ACLs or mappings.
	eng := sim.NewEngine(1)
	tr, _, acc2 := rig(t, eng, 100)
	tr.ConfigureTenant(4, 104)
	tr.InstallACL(allowEntry(keyOf(11211))) // tenant 3 allow
	p := taggedPacket(11211, 100)
	p.VLAN.ID = 104 // tenant 4's VLAN
	tr.Input(p)
	eng.Run()
	if len(acc2.pkts) != 0 {
		t.Error("tenant 4 traffic matched tenant 3 state")
	}
	aclDrops, _, _, _, _, _ := tr.Counters()
	if aclDrops != 1 {
		t.Errorf("aclDrops = %d", aclDrops)
	}
}

func TestRouteLike(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, acc1, _ := rig(t, eng, 100)
	flat := packet.MustParseIP("10.0.0.50")
	if err := tr.RouteLike(flat, srv1); err != nil {
		t.Fatal(err)
	}
	p := packet.NewTCP(0, vmY, flat, 1, 2, 64)
	tr.Input(p)
	eng.Run()
	if len(acc1.pkts) != 1 {
		t.Error("flat route not installed")
	}
	if err := tr.RouteLike(flat, packet.MustParseIP("9.9.9.9")); err == nil {
		t.Error("mirroring an unrouted address accepted")
	}
}

func TestUnrouteableDropsCounted(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, _ := rig(t, eng, 100)
	p := packet.NewTCP(0, vmX, packet.MustParseIP("99.99.99.99"), 1, 2, 64)
	tr.Input(p)
	eng.Run()
	_, _, _, unrouted, _, _ := tr.Counters()
	if unrouted != 1 {
		t.Errorf("unrouted = %d", unrouted)
	}
}

func TestOffloadedFlowWithoutTunnelMappingDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	tr := New(eng, torA, 100, 0)
	tr.ConfigureTenant(3, vlan3)
	tr.InstallACL(allowEntry(keyOf(80)))
	// ACL passes but no VRF tunnel mapping for the destination.
	tr.Input(taggedPacket(80, 64))
	eng.Run()
	_, _, _, unrouted, _, _ := tr.Counters()
	if unrouted != 1 {
		t.Errorf("unrouted = %d, want drop on missing tunnel mapping", unrouted)
	}
}

func TestRemoveVRFStateAfterMigration(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, acc2 := rig(t, eng, 100)
	tr.InstallACL(allowEntry(keyOf(11211)))
	// Tear down the VM's VRF state as migration away would.
	tr.UnregisterLocalVM(3, vmY)
	tr.RemoveVRFTunnel(3, vmY)
	tr.Input(taggedPacket(11211, 64))
	eng.Run()
	if len(acc2.pkts) != 0 {
		t.Error("traffic delivered after VRF state removed")
	}
	// Unknown-tenant variants are no-ops, not panics.
	tr.UnregisterLocalVM(99, vmY)
	tr.RemoveVRFTunnel(99, vmY)
	if err := tr.RegisterLocalVM(99, vmY, srv2); err == nil {
		t.Error("register for unconfigured tenant accepted")
	}
	if err := tr.SetVRFTunnel(99, vmY, torA); err == nil {
		t.Error("tunnel for unconfigured tenant accepted")
	}
}

func TestVFRateMeters(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, _ := rig(t, eng, 100)
	tr.InstallACL(allowEntry(keyOf(11211)))
	if r := tr.VFRate(3, vmX, Egress); r != 0 {
		t.Errorf("idle rate = %v", r)
	}
	for i := 0; i < 100; i++ {
		tr.Input(taggedPacket(11211, 1000))
	}
	eng.RunUntil(100 * time.Millisecond)
	if r := tr.VFRate(3, vmX, Egress); r <= 0 {
		t.Error("egress meter did not record")
	}
}

func TestSetVFLimitUpdateAndRemove(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, _ := rig(t, eng, 100)
	tr.SetVFLimit(3, vmX, Egress, 1e6)
	tr.SetVFLimit(3, vmX, Egress, 2e6) // update in place
	tr.SetVFLimit(3, vmX, Egress, 0)   // remove
	tr.InstallACL(allowEntry(keyOf(11211)))
	for i := 0; i < 50; i++ {
		tr.Input(taggedPacket(11211, 1000))
	}
	eng.Run()
	_, rateDrops, _, _, _, _ := tr.Counters()
	if rateDrops != 0 {
		t.Errorf("drops after limit removal: %d", rateDrops)
	}
}

func TestMalformedGREDropped(t *testing.T) {
	eng := sim.NewEngine(1)
	tr, _, _ := rig(t, eng, 100)
	p := packet.NewUDP(0, torB, torA, 1, 2, 0)
	p.UDP = nil
	p.IP.Proto = packet.ProtoGRE
	p.Payload = []byte{0xff} // truncated GRE header
	tr.Input(p)
	eng.Run()
	_, _, _, unrouted, _, _ := tr.Counters()
	if unrouted != 1 {
		t.Errorf("malformed GRE not dropped: unrouted=%d", unrouted)
	}
}
