package model

import (
	"testing"
	"time"
)

func TestSegments(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 1}, {1, 1}, {64, 1}, {1448, 1}, {1449, 2}, {2896, 2}, {32000, 23},
	}
	for _, c := range cases {
		if got := Segments(c.n); got != c.want {
			t.Errorf("Segments(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGuestOpCostScalesWithSize(t *testing.T) {
	m := Default()
	small := m.GuestOpCost(64)
	large := m.GuestOpCost(32000)
	if large <= small {
		t.Error("guest cost does not grow with size")
	}
	if small < m.GuestPerOp {
		t.Error("guest cost below per-op floor")
	}
}

func TestVSwitchBaselineUsesTSO(t *testing.T) {
	m := Default()
	// With TSO, a 32000-byte message is one traversal: cost must be far
	// below 23 per-segment traversals.
	withTSO := m.VSwitchUnitCost(32000, VSwitchConfig{})
	m.TSO = false
	withoutTSO := m.VSwitchUnitCost(32000, VSwitchConfig{})
	if withTSO >= withoutTSO {
		t.Errorf("TSO did not reduce cost: %v vs %v", withTSO, withoutTSO)
	}
	if withoutTSO < 20*withTSO/10 {
		t.Errorf("per-segment cost %v implausibly close to TSO cost %v", withoutTSO, withTSO)
	}
}

func TestTunnelingDefeatsTSOAndDominates(t *testing.T) {
	m := Default()
	base := m.VSwitchUnitCost(32000, VSwitchConfig{})
	tun := m.VSwitchUnitCost(32000, VSwitchConfig{Tunneling: true})
	if tun < 10*base {
		t.Errorf("tunneling cost %v not dominating baseline %v (paper: tunneling caps at 2 Gbps)", tun, base)
	}
	// Anchor check: at 1448 B, sustaining ~2 Gbps (≈169 kpps) should
	// take roughly 2.4–3.5 logical CPUs of vswitch work (§3.2.1: 2.9).
	perSeg := m.VSwitchUnitCost(1448, VSwitchConfig{Tunneling: true})
	cpus := 169e3 * perSeg.Seconds()
	if cpus < 2.0 || cpus > 4.0 {
		t.Errorf("tunneling at 2 Gbps needs %.2f CPUs, want ~2.9", cpus)
	}
}

func TestPathLatencyOrdering(t *testing.T) {
	m := Default()
	base := m.PathLatency(VSwitchConfig{})
	tun := m.PathLatency(VSwitchConfig{Tunneling: true})
	rl := m.PathLatency(VSwitchConfig{RateLimitBps: 1e9})
	all := m.PathLatency(VSwitchConfig{Tunneling: true, RateLimitBps: 1e9})
	if !(base < rl && rl < tun && tun < all) {
		t.Errorf("latency ordering broken: base=%v rl=%v tun=%v all=%v", base, rl, tun, all)
	}
	if base <= m.VFLatency {
		t.Error("VIF floor must exceed VF floor (Fig. 3b)")
	}
}

func TestCPURatioAnchor(t *testing.T) {
	// Fig. 4(a): SR-IOV CPU is 0.4–0.7× baseline OVS at the same
	// throughput. Check the per-message totals across sizes.
	m := Default()
	for _, n := range AppDataSizes {
		vif := m.GuestOpCost(n) + m.VSwitchUnitCost(n, VSwitchConfig{})
		vf := m.GuestOpCost(n) + m.VFHostPerInterrupt
		ratio := vf.Seconds() / vif.Seconds()
		if ratio < 0.3 || ratio > 0.75 {
			t.Errorf("size %d: VF/VIF CPU ratio %.2f outside [0.3,0.75]", n, ratio)
		}
	}
}

func TestSlowPathCostScalesWithRules(t *testing.T) {
	m := Default()
	if m.SlowPathCost(10000) <= m.SlowPathCost(0) {
		t.Error("slow path cost ignores rule count")
	}
	// But 10k rules must stay a one-time cost in the µs–ms range, not
	// a steady-state throughput limiter (§3.2: "no measurable
	// difference" with 10,000 rules).
	if m.SlowPathCost(10000) > 2*time.Millisecond {
		t.Errorf("slow path with 10k rules = %v, implausibly large", m.SlowPathCost(10000))
	}
}
