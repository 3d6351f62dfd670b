package smartnic

import (
	"errors"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

func egressPat(tenant packet.TenantID, ip string, port uint16) rules.Pattern {
	return rules.AggregatePattern(packet.AggregateKey{
		VMIP: packet.MustParseIP(ip), Port: port, Tenant: tenant, Dir: packet.Egress,
	})
}

func flowKey(tenant packet.TenantID, src, dst string, srcPort, dstPort uint16) packet.FlowKey {
	return packet.FlowKey{
		Tenant: tenant,
		Src:    packet.MustParseIP(src), Dst: packet.MustParseIP(dst),
		SrcPort: srcPort, DstPort: dstPort, Proto: packet.ProtoTCP,
	}
}

func testPacket(k packet.FlowKey, size int) *packet.Packet {
	return &packet.Packet{
		IP:             packet.IPv4{Src: k.Src, Dst: k.Dst, Proto: k.Proto, TTL: 64},
		TCP:            &packet.TCPHeader{SrcPort: k.SrcPort, DstPort: k.DstPort},
		VirtualPayload: size,
		Tenant:         k.Tenant,
	}
}

func TestInstallQuotaCapacityIdempotence(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{Capacity: 3, TenantQuota: 2})

	p1 := egressPat(3, "10.3.0.1", 1)
	p2 := egressPat(3, "10.3.0.1", 2)
	p3 := egressPat(3, "10.3.0.1", 3)
	q1 := egressPat(4, "10.4.0.1", 1)
	q2 := egressPat(4, "10.4.0.1", 2)

	for _, p := range []rules.Pattern{p1, p2} {
		if err := n.Install(p, 0); err != nil {
			t.Fatalf("install %v: %v", p, err)
		}
	}
	// Tenant 3 is at quota; the table still has room.
	if err := n.Install(p3, 0); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota install: got %v, want ErrQuota", err)
	}
	// Another tenant may still use the remaining entry…
	if err := n.Install(q1, 0); err != nil {
		t.Fatalf("install %v: %v", q1, err)
	}
	// …after which the table (not the quota) rejects.
	if err := n.Install(q2, 0); !errors.Is(err, rules.ErrTCAMFull) {
		t.Fatalf("full-table install: got %v, want ErrTCAMFull", err)
	}
	// Re-installing a present rule is a no-op success (the controller
	// reasserts desired state every interval).
	installs := n.Counters().Installs
	if err := n.Install(p1, 0); err != nil {
		t.Fatalf("idempotent install: %v", err)
	}
	if got := n.Counters().Installs; got != installs {
		t.Errorf("idempotent install counted: %d -> %d", installs, got)
	}
	if n.Len() != 3 || n.Free() != 0 {
		t.Errorf("len=%d free=%d, want 3/0", n.Len(), n.Free())
	}
	if n.perTenant[3] != 2 || n.perTenant[4] != 1 {
		t.Errorf("tenant rules: t3=%d t4=%d", n.perTenant[3], n.perTenant[4])
	}
	if got := n.Counters().Rejects; got != 2 {
		t.Errorf("rejects=%d, want 2", got)
	}

	if n.Remove(p1) != 1 {
		t.Error("remove of installed rule returned 0 entries")
	}
	if n.Remove(p1) != 0 {
		t.Error("remove of absent rule returned entries")
	}
	if err := n.Install(p3, 0); err != nil {
		t.Fatalf("install after freeing quota: %v", err)
	}
}

func TestInstallFaultGate(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{Capacity: 4})
	boom := errors.New("firmware says no")
	n.SetInstallFault(func() error { return boom })
	p := egressPat(3, "10.3.0.1", 1)
	if err := n.Install(p, 0); !errors.Is(err, boom) {
		t.Fatalf("faulted install: got %v", err)
	}
	if n.byPattern[p] != nil || n.Counters().Rejects != 1 {
		t.Errorf("faulted install left state: has=%v rejects=%d", n.byPattern[p] != nil, n.Counters().Rejects)
	}
	n.SetInstallFault(nil)
	if err := n.Install(p, 0); err != nil {
		t.Fatalf("install after fault cleared: %v", err)
	}
}

// TestTryEgressHitAndMiss pins the cardinal property: a miss touches
// nothing and returns false (software fallback), a hit schedules the
// forward hook after the lookup latency and never before a previously
// admitted packet (FIFO).
func TestTryEgressHitAndMiss(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{Capacity: 4, LookupLatency: 2 * time.Microsecond, JitterMean: time.Microsecond})
	var forwarded []sim.Time
	n.SetForward(func(tenant packet.TenantID, src packet.IP, p *packet.Packet) {
		if tenant != 3 {
			t.Errorf("forward tenant=%d", tenant)
		}
		forwarded = append(forwarded, eng.Now())
	})
	k := flowKey(3, "10.3.0.1", "10.3.0.2", 40000, 9000)
	miss := flowKey(3, "10.3.0.9", "10.3.0.2", 40000, 9000)
	if err := n.Install(rules.AggregatePattern(k.EgressAggregate()), 0); err != nil {
		t.Fatal(err)
	}
	if n.TryEgress(miss, testPacket(miss, 100)) {
		t.Fatal("miss forwarded in hardware")
	}
	const N = 50
	for i := 0; i < N; i++ {
		if !n.TryEgress(k, testPacket(k, 100)) {
			t.Fatal("hit not forwarded")
		}
	}
	eng.RunUntil(time.Second)
	if len(forwarded) != N {
		t.Fatalf("forwarded %d packets, want %d", len(forwarded), N)
	}
	for i := 1; i < len(forwarded); i++ {
		if forwarded[i] < forwarded[i-1] {
			t.Fatalf("pipeline reordered: %v after %v", forwarded[i], forwarded[i-1])
		}
	}
	if forwarded[0] < 2*time.Microsecond {
		t.Errorf("first forward at %v, before the lookup latency floor", forwarded[0])
	}
	c := n.Counters()
	if c.Hits != N || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want %d/1", c.Hits, c.Misses, N)
	}
	snap := n.Snapshot()
	if len(snap) != 1 || snap[0].Packets != N {
		t.Errorf("snapshot = %+v, want one flow with %d packets", snap, N)
	}
	// Removing the covering rule purges the flow counters with it.
	n.Remove(rules.AggregatePattern(k.EgressAggregate()))
	if len(n.Snapshot()) != 0 {
		t.Error("flow counters survived their rule's removal")
	}
}

// TestAdmissionFairShare drives the water-filled admission directly: once
// a window's offered load exceeds the pipeline budget, the next window
// holds the heavy tenant to its max-min share while the light tenant's
// full demand fits.
func TestAdmissionFairShare(t *testing.T) {
	cfg := Config{Capacity: 4, PipelinePPS: 10000, Window: 10 * time.Millisecond,
		AdmitQuantum: 8, Headroom: 1.0}.normalized()
	a := newAdmitState(cfg)
	// Window 0: 900 + 50 offered against a 100-packet budget; admission
	// is still free (throttling needs a measured window first).
	offer := func(now time.Duration, t packet.TenantID, k int) (admitted int) {
		for i := 0; i < k; i++ {
			if a.admit(now, t) {
				admitted++
			}
		}
		return
	}
	if got := offer(0, 1, 900); got != 900 {
		t.Fatalf("unmeasured window throttled: %d/900", got)
	}
	offer(0, 2, 50)
	// Window 1: same offered pattern, now throttled. Budget 100: the
	// light tenant (demand 50) is fully satisfied, the heavy one gets
	// the remainder.
	heavy := offer(10*time.Millisecond, 1, 900)
	light := offer(10*time.Millisecond, 2, 50)
	if light != 50 {
		t.Errorf("light tenant throttled: %d/50", light)
	}
	if heavy != 50 {
		t.Errorf("heavy tenant admitted %d, want its max-min share 50", heavy)
	}
	// A tenant absent from the measured window still gets the quantum.
	if got := offer(10*time.Millisecond, 9, 20); got != 8 {
		t.Errorf("new tenant admitted %d, want quantum 8", got)
	}
	// Window 3 (after an idle window 2): no measured overload, free again.
	if got := offer(30*time.Millisecond, 1, 200); got != 200 {
		t.Errorf("post-idle window throttled: %d/200", got)
	}
}

// TestTryEgressThrottleFallback: the integration form — an over-budget
// tenant's excess bounces back to software (false), never drops, and is
// counted as throttled.
func TestTryEgressThrottleFallback(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{Capacity: 4, PipelinePPS: 1000, Window: 10 * time.Millisecond,
		AdmitQuantum: 1, Headroom: 1.0})
	n.SetForward(func(packet.TenantID, packet.IP, *packet.Packet) {})
	k := flowKey(3, "10.3.0.1", "10.3.0.2", 40000, 9000)
	if err := n.Install(rules.AggregatePattern(k.EgressAggregate()), 0); err != nil {
		t.Fatal(err)
	}
	run := func(k packet.FlowKey, count int) (hw int) {
		for i := 0; i < count; i++ {
			if n.TryEgress(k, testPacket(k, 100)) {
				hw++
			}
		}
		return
	}
	if got := run(k, 100); got != 100 {
		t.Fatalf("first window: %d/100 in hardware", got)
	}
	eng.RunUntil(10 * time.Millisecond) // next admission window
	hw := run(k, 100)                   // budget is 10 packets/window
	if hw >= 100 || hw == 0 {
		t.Fatalf("second window admitted %d/100, want partial throttling", hw)
	}
	c := n.Counters()
	if c.Throttled != uint64(100-hw) {
		t.Errorf("throttled=%d, want %d", c.Throttled, 100-hw)
	}
}

func TestResetAndCorruptFaults(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, Config{Capacity: 8})
	var pats []rules.Pattern
	for i := uint16(0); i < 4; i++ {
		p := egressPat(3, "10.3.0.1", 9000+i)
		pats = append(pats, p)
		if err := n.Install(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if lost := n.ResetTable(); lost != 4 {
		t.Fatalf("reset lost %d rules, want 4", lost)
	}
	if n.Len() != 0 || n.Free() != 8 || n.perTenant[3] != 0 {
		t.Errorf("reset left state: len=%d free=%d t3=%d", n.Len(), n.Free(), n.perTenant[3])
	}
	// Reinstall (the controller's reassert) and corrupt everything.
	for _, p := range pats {
		if err := n.Install(p, 0); err != nil {
			t.Fatal(err)
		}
	}
	if lost := n.CorruptRules(1.0, eng.Rand()); lost != 4 {
		t.Fatalf("corrupt(p=1) lost %d rules, want 4", lost)
	}
	if lost := n.CorruptRules(0.0, eng.Rand()); lost != 0 {
		t.Fatalf("corrupt(p=0) lost %d rules, want 0", lost)
	}
	// A wiped table misses — the fallback contract, not a drop.
	k := flowKey(3, "10.3.0.1", "10.3.0.2", 40000, 9000)
	if n.TryEgress(k, testPacket(k, 100)) {
		t.Error("lookup hit after corruption wiped the table")
	}
}

// TestNilNIC: every read-side accessor and TryEgress must be nil-safe —
// servers without SmartNICs share all call sites.
func TestNilNIC(t *testing.T) {
	var n *NIC
	k := flowKey(3, "10.3.0.1", "10.3.0.2", 40000, 9000)
	if n.TryEgress(k, testPacket(k, 100)) {
		t.Error("nil NIC forwarded")
	}
	if n.Len() != 0 || n.Free() != 0 {
		t.Error("nil NIC reports state")
	}
	if n.Snapshot() != nil || n.Patterns() != nil {
		t.Error("nil NIC returned snapshots")
	}
}
