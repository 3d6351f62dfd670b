package vswitch

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var (
	srvA = packet.MustParseIP("192.168.1.10")
	srvB = packet.MustParseIP("192.168.1.11")
	vmA  = VMKey{Tenant: 3, IP: packet.MustParseIP("10.0.0.1")}
	vmB  = VMKey{Tenant: 3, IP: packet.MustParseIP("10.0.0.2")}
)

type capture struct{ pkts []*packet.Packet }

func (c *capture) Input(p *packet.Packet) { c.pkts = append(c.pkts, p) }

// immediateExec runs work with zero queueing (unit-test CPU).
func newSwitch(eng *sim.Engine, cfg model.VSwitchConfig, uplink fabric.Port) (*Switch, *model.CostModel) {
	cm := model.Default()
	sw := New(eng, &cm, cfg, srvA, Inline, uplink)
	return sw, &cm
}

func attach(sw *Switch, key VMKey, r *rules.VMRules) *capture {
	c := &capture{}
	if r == nil {
		r = &rules.VMRules{Tenant: key.Tenant, VMIP: key.IP}
	}
	sw.AttachVM(key, r, c, Inline)
	return c
}

func sendPkt(tenant packet.TenantID, src, dst packet.IP, dstPort uint16, size int) *packet.Packet {
	return packet.NewTCP(tenant, src, dst, 40000, dstPort, size)
}

func TestBaselineForwardsToUplink(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
	attach(sw, vmA, nil)
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 1000))
	eng.Run()
	if len(up.pkts) != 1 {
		t.Fatalf("uplink got %d packets", len(up.pkts))
	}
	if up.pkts[0].Meta.Path != "vif" {
		t.Errorf("path label = %q", up.pkts[0].Meta.Path)
	}
}

func TestLocalDeliveryBetweenVMs(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
	attach(sw, vmA, nil)
	cb := attach(sw, vmB, nil)
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, vmB.IP, 80, 100))
	eng.Run()
	if len(cb.pkts) != 1 {
		t.Fatalf("local VM got %d packets", len(cb.pkts))
	}
	if len(up.pkts) != 0 {
		t.Error("intra-host traffic leaked to the wire")
	}
}

func TestSecurityRulesEnforced(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
	r := &rules.VMRules{Tenant: 3, VMIP: vmA.IP}
	r.Security = append(r.Security, rules.SecurityRule{
		Pattern: rules.Pattern{Tenant: 3, DstPort: 11211}, Action: rules.Allow, Priority: 1,
	})
	attach(sw, vmA, r)

	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 11211, 100))
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 22, 100))
	eng.Run()
	if len(up.pkts) != 1 {
		t.Fatalf("uplink got %d packets, want 1 (ssh denied)", len(up.pkts))
	}
	if denied := sw.Counters().Denied; denied != 1 {
		t.Errorf("denied = %d, want 1", denied)
	}
}

func TestFastPathCachesVerdict(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{SecurityRules: 10000}, up)
	attach(sw, vmA, nil)
	for i := 0; i < 50; i++ {
		sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 100))
		eng.Run()
	}
	if upcalls := sw.Counters().Upcalls; upcalls != 1 {
		t.Errorf("upcalls = %d, want 1 (only first packet hits slow path)", upcalls)
	}
	if sw.ActiveFlows() != 1 {
		t.Errorf("active flows = %d", sw.ActiveFlows())
	}
}

func TestTunnelingEncapsulates(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{Tunneling: true}, up)
	attach(sw, vmA, nil)
	sw.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: vmB.IP, Remote: srvB})
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, vmB.IP, 80, 1000))
	eng.Run()
	if len(up.pkts) != 1 {
		t.Fatalf("uplink got %d packets", len(up.pkts))
	}
	out := up.pkts[0]
	if out.UDP == nil || out.UDP.DstPort != packet.VXLANPort {
		t.Fatalf("not VXLAN: %+v", out.UDP)
	}
	if out.IP.Src != srvA || out.IP.Dst != srvB {
		t.Errorf("outer addressing %v→%v", out.IP.Src, out.IP.Dst)
	}
}

func TestTunnelingWithoutMappingDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{Tunneling: true}, up)
	attach(sw, vmA, nil)
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, vmB.IP, 80, 1000))
	eng.Run()
	if len(up.pkts) != 0 {
		t.Error("unmapped tenant traffic escaped")
	}
	if unrouted := sw.Counters().Unrouted; unrouted != 1 {
		t.Errorf("unrouted = %d", unrouted)
	}
}

func TestReceivePathDecapsAndDelivers(t *testing.T) {
	eng := sim.NewEngine(1)
	// Build a tunneled packet with a second switch, then feed it to the
	// receiving switch — full encap/decap through wire formats.
	upA := &capture{}
	swA, _ := newSwitch(eng, model.VSwitchConfig{Tunneling: true}, upA)
	attach(swA, vmA, nil)
	swA.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: vmB.IP, Remote: srvB})
	swA.OutputFromVM(vmA, sendPkt(3, vmA.IP, vmB.IP, 8080, 640))
	eng.Run()
	if len(upA.pkts) != 1 {
		t.Fatal("no encapped packet")
	}

	cm := model.Default()
	swB := New(eng, &cm, model.VSwitchConfig{Tunneling: true}, srvB, Inline, fabric.Discard)
	cb := &capture{}
	swB.AttachVM(vmB, &rules.VMRules{Tenant: 3, VMIP: vmB.IP}, cb, Inline)
	swB.InputFromNIC(upA.pkts[0])
	eng.Run()
	if len(cb.pkts) != 1 {
		t.Fatalf("VM B got %d packets", len(cb.pkts))
	}
	got := cb.pkts[0]
	if got.Tenant != 3 || got.IP.Dst != vmB.IP || got.PayloadLen() != 640 {
		t.Errorf("delivered packet wrong: tenant=%d dst=%v len=%d", got.Tenant, got.IP.Dst, got.PayloadLen())
	}
}

func TestRateLimitShapesThroughput(t *testing.T) {
	eng := sim.NewEngine(1)
	var lastArrival time.Duration
	n := 0
	up := fabric.PortFunc(func(p *packet.Packet) {
		lastArrival = eng.Now()
		n++
	})
	// 100 Mbps limit; send 100 packets of ~1500B back to back
	// (1.2 Mb total → ≥12 ms at 100 Mbps).
	sw, _ := newSwitch(eng, model.VSwitchConfig{RateLimitBps: 100e6}, up)
	attach(sw, vmA, nil)
	for i := 0; i < 100; i++ {
		sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 1446))
	}
	eng.Run()
	if n != 100 {
		t.Fatalf("delivered %d", n)
	}
	bits := float64(100 * 1500 * 8)
	rate := bits / lastArrival.Seconds()
	if rate > 110e6 {
		t.Errorf("shaped rate %.1f Mbps exceeds 100 Mbps limit", rate/1e6)
	}
	if rate < 80e6 {
		t.Errorf("shaped rate %.1f Mbps too far below limit", rate/1e6)
	}
}

func TestPerVMLimitsViaFasTrak(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
	attach(sw, vmA, nil)
	if err := sw.SetVIFLimits(vmA, 50e6, 50e6); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetVIFLimits(VMKey{Tenant: 9, IP: 1}, 1, 1); err == nil {
		t.Error("limits for unknown VM accepted")
	}
	// Rates adjustable on the fly (control interval updates).
	if err := sw.SetVIFLimits(vmA, 100e6, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotCountsSegments(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, &capture{})
	attach(sw, vmA, nil)
	// One 32000-byte message = 23 wire segments: pps statistics must
	// reflect wire packets, which is what the DE ranks by.
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 32000))
	eng.Run()
	snap := sw.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d flows", len(snap))
	}
	if snap[0].Packets != 23 {
		t.Errorf("packets = %d, want 23 segments", snap[0].Packets)
	}
}

func TestDetachVMPurgesState(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, &capture{})
	attach(sw, vmA, nil)
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 100))
	eng.Run()
	if sw.ActiveFlows() != 1 {
		t.Fatal("expected one cached flow")
	}
	sw.DetachVM(vmA)
	if sw.ActiveFlows() != 0 {
		t.Error("detach left fast-path entries")
	}
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 100))
	eng.Run()
	if sw.Counters().Unrouted != 1 {
		t.Error("traffic from detached VM not dropped")
	}
}

func TestInvalidate(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, &capture{})
	attach(sw, vmA, nil)
	for port := uint16(80); port < 85; port++ {
		sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), port, 100))
	}
	eng.Run()
	if sw.ActiveFlows() != 5 {
		t.Fatalf("active = %d", sw.ActiveFlows())
	}
	n := sw.Invalidate(rules.Pattern{Tenant: 3, DstPort: 82})
	if n != 1 || sw.ActiveFlows() != 4 {
		t.Errorf("invalidated %d, active %d", n, sw.ActiveFlows())
	}
}

func TestSlowPathUpcallsCoalesce(t *testing.T) {
	// A burst of packets for one new flow must trigger a single
	// user-space rule scan, not one per packet (OVS batches misses of
	// a flow with a pending upcall).
	eng := sim.NewEngine(1)
	up := &capture{}
	// Non-inline host exec so the upcall takes time and the burst
	// arrives while it is pending.
	pending := 0
	slowExec := func(cost time.Duration, fn func()) {
		pending++
		eng.After(cost, fn)
	}
	cm := model.Default()
	sw := New(eng, &cm, model.VSwitchConfig{SecurityRules: 10000}, srvA, slowExec, up)
	attach(sw, vmA, nil)
	for i := 0; i < 32; i++ {
		sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, packet.MustParseIP("10.0.9.9"), 80, 100))
	}
	eng.Run()
	if len(up.pkts) != 32 {
		t.Fatalf("delivered %d of 32", len(up.pkts))
	}
	if upcalls := sw.Counters().Upcalls; upcalls != 1 {
		t.Errorf("upcalls = %d, want 1 (coalesced)", upcalls)
	}
	// Stats counted every packet exactly once.
	snap := sw.Snapshot()
	if len(snap) != 1 || snap[0].Packets != 32 {
		t.Errorf("flow stats = %+v", snap)
	}
}

func TestUpcallVsConcurrentPromote(t *testing.T) {
	// Race regression: a flow's fast-path entry is evicted; its next
	// packet starts a fresh slow-path scan; while the scan is in flight
	// the DE promotes the flow to hardware and flushes the software path
	// (Invalidate). The completing scan must not resurrect its verdict
	// into the fast path — a resurrected entry would keep steering and
	// double-counting a flow that now lives in the TCAM.
	eng := sim.NewEngine(1)
	up := &capture{}
	slowExec := func(cost time.Duration, fn func()) { eng.After(cost, fn) }
	cm := model.Default()
	// 10000 security rules make the scan take ~450µs of virtual time, a
	// wide window for the promote to land mid-scan.
	sw := New(eng, &cm, model.VSwitchConfig{SecurityRules: 10000}, srvA, slowExec, up)
	attach(sw, vmA, nil)
	dst := packet.MustParseIP("10.0.9.9")

	// Warm the fast path, then evict the entry.
	warm := sendPkt(3, vmA.IP, dst, 80, 100)
	sw.OutputFromVM(vmA, warm)
	eng.Run()
	if sw.ActiveFlows() != 1 {
		t.Fatalf("active = %d, want 1", sw.ActiveFlows())
	}
	eng.At(10*time.Second, func() {
		if n := sw.Invalidate(rules.ExactPattern(warm.Key())); n != 1 {
			t.Errorf("evicted %d, want 1", n)
		}
		// The flow comes back: a miss, a new pending scan.
		sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, dst, 80, 100))
	})
	// 100µs later — after admission, well before the ~450µs scan
	// completes — the promote flushes the software path.
	eng.At(10*time.Second+100*time.Microsecond, func() {
		sw.Invalidate(rules.Pattern{Tenant: 3, DstPort: 80})
	})
	eng.Run()

	// The packet itself is delivered (its waiter still gets a verdict)…
	if len(up.pkts) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(up.pkts))
	}
	// …but the stale verdict must not reappear in the fast path.
	if sw.ActiveFlows() != 0 {
		t.Errorf("completed scan resurrected the invalidated entry: active = %d", sw.ActiveFlows())
	}
	// And the scan was still accounted as served.
	if tel := sw.Counters(); tel.Upcalls != 2 || tel.UpcallsServed != 2 {
		t.Errorf("upcalls = %d served = %d, want 2/2", tel.Upcalls, tel.UpcallsServed)
	}
}

// TestSwitchExactCacheBounded drives 100k distinct 5-tuples through one
// Switch. Its exact cache must stay within the cap (before the flow core it
// was a map that kept every flow for ever) while every packet is accounted
// for.
func TestSwitchExactCacheBounded(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, fabric.Discard)
	attach(sw, vmA, &rules.VMRules{Tenant: 3, VMIP: vmA.IP, Security: []rules.SecurityRule{
		{Pattern: rules.Pattern{Tenant: 3, DstPort: 8001}, Action: rules.Deny, Priority: 2},
		{Pattern: rules.Pattern{Tenant: 3}, Action: rules.Allow, Priority: 1},
	}})
	const tuples = 100_000
	for i := 0; i < tuples; i++ {
		dst := packet.MakeIP(10, 0, 9, byte(i>>16))
		sw.OutputFromVM(vmA, packet.NewTCP(3, vmA.IP, dst, uint16(i), uint16(8000+i%3), 100))
		if i%1024 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if n := sw.ActiveFlows(); n > ExactTableSlots || n < ExactTableSlots/2 {
		t.Fatalf("ActiveFlows = %d after %d distinct flows, want a full table of at most %d", n, tuples, ExactTableSlots)
	}
	if n := len(sw.Snapshot()); n != sw.ActiveFlows() {
		t.Fatalf("Snapshot has %d flows, ActiveFlows %d", n, sw.ActiveFlows())
	}
	c := sw.Counters()
	if acc := c.Tx + c.Denied + c.Unrouted + c.Drops.Total(); acc != tuples || c.Denied == 0 || c.Tx == 0 {
		t.Fatalf("sent %d packets, accounted %d: %+v", tuples, acc, c)
	}
	// Every flow was installed once and is either still there or was
	// overwritten, and the exposition says how many were.
	reg := telemetry.NewRegistry()
	sw.RegisterMetrics(reg)
	var prom bytes.Buffer
	if err := telemetry.WritePrometheus(&prom, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("\nfastrak_vswitch_exact_evictions_total %d\n", tuples-sw.ActiveFlows()),
		fmt.Sprintf("\nfastrak_vswitch_megaflow_masks %d\n", len(sw.core.mega.masks)),
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if err := telemetry.LintPrometheus(&prom); err != nil {
		t.Error(err)
	}
}

// TestUpcallInstallResetsCounters pins a quirk the recorded results/ rest
// on (flowCore.miss): when a megaflow hit installs a flow's exact entry
// while the flow's own upcall is still pending, the completing upcall
// replaces that entry, and the packets it counted meanwhile are dropped
// from the flow's statistics. Fixing the undercount changes
// results/evalbench.txt and is a change of its own.
func TestUpcallInstallResetsCounters(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	slowExec := func(cost time.Duration, fn func()) { eng.After(cost, fn) }
	cm := model.Default()
	sw := New(eng, &cm, model.VSwitchConfig{SecurityRules: 10000}, srvA, slowExec, up)
	oc := DefaultOverloadConfig()
	oc.MaxInFlight = 1 // one handler thread: the two scans below run back to back
	sw.SetOverloadConfig(oc)
	// One tenant-wide rule: every port of the destination shares a megaflow.
	attach(sw, vmA, &rules.VMRules{Tenant: 3, VMIP: vmA.IP, Security: []rules.SecurityRule{
		{Pattern: rules.Pattern{Tenant: 3}, Action: rules.Allow, Priority: 1},
	}})
	dst := packet.MustParseIP("10.0.9.9")
	const perFlow = 5
	// Flows 80 and 81 miss together: two scans (~450µs each) are queued.
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, dst, 80, 100))
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, dst, 81, 100))
	// Between the first scan's completion, which installs the megaflow, and
	// the second's, flow 81 sends again: a megaflow hit installs its exact
	// entry, which counts all five packets.
	var midScan uint64
	eng.At(700*time.Microsecond, func() {
		for i := 0; i < perFlow; i++ {
			sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, dst, 81, 100))
		}
	})
	eng.At(800*time.Microsecond, func() {
		for _, f := range sw.Snapshot() {
			if f.Key.DstPort == 81 {
				midScan = f.Packets
			}
		}
	})
	eng.Run()
	if tel := sw.Counters(); tel.Upcalls != 2 || tel.UpcallsServed != 2 || tel.Megaflow.Hits != 1 {
		t.Fatalf("set-up: want 2 upcalls and one megaflow hit between their completions, got %+v", tel)
	}
	if midScan != perFlow {
		t.Fatalf("flow 81 had %d packets counted mid-scan, want %d", midScan, perFlow)
	}
	if len(up.pkts) != 2+perFlow {
		t.Fatalf("delivered %d packets, want %d", len(up.pkts), 2+perFlow)
	}
	for _, f := range sw.Snapshot() {
		// The upcall's own waiter is charged after the install; the five
		// packets counted before it are gone.
		if f.Key.DstPort == 81 && f.Packets != 1 {
			t.Fatalf("flow 81 counts %d packets after its upcall completed, want 1 (the replace-reset quirk)", f.Packets)
		}
	}
}
