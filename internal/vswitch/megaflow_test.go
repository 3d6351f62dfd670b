package vswitch

import (
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sim"
)

// TestMegaflowAbsorbsPortScan is the tentpole behavior: flows differing
// only in fields the rule set never examines share one wildcard entry, so
// a scan across many ports costs one upcall, not one per flow.
func TestMegaflowAbsorbsPortScan(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
	r := &rules.VMRules{Tenant: 3, VMIP: vmA.IP}
	// One allow-all-TCP rule: the classification consults proto (and the
	// always-pinned tenant/src/dst), never the ports.
	r.Security = append(r.Security, rules.SecurityRule{
		Pattern: rules.Pattern{Tenant: 3, Proto: packet.ProtoTCP}, Action: rules.Allow, Priority: 1,
	})
	attach(sw, vmA, r)

	dst := packet.MustParseIP("10.0.9.9")
	for port := uint16(1000); port < 1200; port++ {
		sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, dst, port, 100))
		eng.Run()
	}
	tel := sw.Counters()
	if tel.Upcalls != 1 {
		t.Errorf("upcalls = %d, want 1 (megaflow should absorb the scan)", tel.Upcalls)
	}
	if tel.Megaflow.Hits != 199 {
		t.Errorf("megaflow hits = %d, want 199", tel.Megaflow.Hits)
	}
	if len(up.pkts) != 200 {
		t.Errorf("delivered %d packets, want 200", len(up.pkts))
	}
	// Every flow still gets its own exact entry for per-flow stats.
	if sw.ActiveFlows() != 200 {
		t.Errorf("active exact flows = %d, want 200", sw.ActiveFlows())
	}
	if sw.ActiveMegaflows() != 1 {
		t.Errorf("active megaflows = %d, want 1", sw.ActiveMegaflows())
	}
}

// TestMegaflowInvalidateOnRuleChange: a rule change covering a cached
// region must flush the wildcard entry, and the next packet must see the
// new verdict.
func TestMegaflowInvalidateOnRuleChange(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
	r := &rules.VMRules{Tenant: 3, VMIP: vmA.IP}
	r.Security = append(r.Security, rules.SecurityRule{
		Pattern: rules.Pattern{Tenant: 3}, Action: rules.Allow, Priority: 1,
	})
	attach(sw, vmA, r)
	dst := packet.MustParseIP("10.0.9.9")

	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, dst, 80, 100))
	eng.Run()
	if len(up.pkts) != 1 {
		t.Fatalf("delivered %d, want 1", len(up.pkts))
	}

	// Tighten the policy: deny port 22, and tell the switch (the
	// controller contract for any rule change).
	r.Security = append(r.Security, rules.SecurityRule{
		Pattern: rules.Pattern{Tenant: 3, DstPort: 22}, Action: rules.Deny, Priority: 2,
	})
	sw.Invalidate(rules.Pattern{Tenant: 3, DstPort: 22})

	// Without invalidation the old tenant-wide megaflow would allow this.
	sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, dst, 22, 100))
	eng.Run()
	if len(up.pkts) != 1 {
		t.Fatalf("ssh packet leaked through a stale megaflow")
	}
	if sw.Counters().Denied != 1 {
		t.Errorf("denied = %d, want 1", sw.Counters().Denied)
	}
}

// TestMegaflowDifferential drives a cached switch and a per-packet linear
// reference with the same randomized traffic and rule-change
// interleavings, asserting every packet gets the identical verdict. This
// is the semantic-transparency acceptance check for the wildcard cache.
func TestMegaflowDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dsts := []packet.IP{
		packet.MustParseIP("10.0.9.1"),
		packet.MustParseIP("10.0.9.2"),
	}
	randRule := func() rules.SecurityRule {
		p := rules.Pattern{Tenant: 3}
		if rng.Intn(2) == 0 {
			p.Dst, p.DstPrefix = dsts[rng.Intn(2)], 32
		}
		if rng.Intn(2) == 0 {
			p.DstPort = []uint16{22, 80, 443}[rng.Intn(3)]
		}
		if rng.Intn(3) == 0 {
			p.Proto = packet.ProtoTCP
		}
		return rules.SecurityRule{
			Pattern:  p,
			Action:   rules.Action(rng.Intn(2)),
			Priority: rng.Intn(5),
		}
	}

	for trial := 0; trial < 10; trial++ {
		eng := sim.NewEngine(1)
		up := &capture{}
		sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
		r := &rules.VMRules{Tenant: 3, VMIP: vmA.IP}
		for i := 0; i < 5; i++ {
			r.Security = append(r.Security, randRule())
		}
		attach(sw, vmA, r)

		delivered := 0
		for step := 0; step < 400; step++ {
			if rng.Intn(20) == 0 {
				// Rule churn: add or remove, then invalidate the changed
				// pattern (the controller contract). When the endpoint's
				// rule set transitions between empty and non-empty the
				// default verdict flips for every key, so the contract
				// requires wholesale endpoint invalidation instead — the
				// same flush AttachVM/DetachVM perform.
				wasEmpty := len(r.Security) == 0
				var changed rules.Pattern
				if rng.Intn(2) == 0 || wasEmpty {
					nr := randRule()
					r.Security = append(r.Security, nr)
					changed = nr.Pattern
				} else {
					i := rng.Intn(len(r.Security))
					changed = r.Security[i].Pattern
					r.Security = append(append([]rules.SecurityRule{}, r.Security[:i]...), r.Security[i+1:]...)
				}
				if wasEmpty != (len(r.Security) == 0) {
					sw.Invalidate(rules.Pattern{Tenant: 3, Src: vmA.IP, SrcPrefix: 32})
					sw.Invalidate(rules.Pattern{Tenant: 3, Dst: vmA.IP, DstPrefix: 32})
				} else {
					sw.Invalidate(changed)
				}
			}
			k := packet.FlowKey{
				Tenant:  3,
				Src:     vmA.IP,
				Dst:     dsts[rng.Intn(2)],
				SrcPort: uint16(40000 + rng.Intn(2)),
				DstPort: []uint16{22, 80, 443}[rng.Intn(3)],
				Proto:   packet.ProtoTCP,
			}
			// Reference semantics: the switch skips rule-less endpoints
			// (baseline L2 allow); otherwise the seed linear scan decides.
			want := len(r.Security) == 0 || r.EvaluateLinear(k) == rules.Allow
			sw.OutputFromVM(vmA, sendPkt(3, k.Src, k.Dst, k.DstPort, 100))
			eng.Run()
			if want {
				delivered++
			}
			if len(up.pkts) != delivered {
				t.Fatalf("trial %d step %d: key %v delivered=%d want=%d (verdict diverged from linear reference)",
					trial, step, k, len(up.pkts), delivered)
			}
		}
	}
}

// TestMegaflowOverflowFlushes: exceeding the entry limit triggers a full
// flush (the OVS revalidation storm), after which classification still
// works and the eviction is accounted.
func TestMegaflowOverflowFlushes(t *testing.T) {
	eng := sim.NewEngine(1)
	up := &capture{}
	sw, _ := newSwitch(eng, model.VSwitchConfig{}, up)
	sw.core.mega = newMegaflowCache(4)
	r := &rules.VMRules{Tenant: 3, VMIP: vmA.IP}
	// Port-pinned rules give every destination port its own megaflow.
	for port := uint16(1000); port < 1010; port++ {
		r.Security = append(r.Security, rules.SecurityRule{
			Pattern: rules.Pattern{Tenant: 3, DstPort: port}, Action: rules.Allow, Priority: 1,
		})
	}
	attach(sw, vmA, r)
	dst := packet.MustParseIP("10.0.9.9")
	for port := uint16(1000); port < 1010; port++ {
		sw.OutputFromVM(vmA, sendPkt(3, vmA.IP, dst, port, 100))
		eng.Run()
	}
	tel := sw.Counters()
	if tel.Megaflow.Evictions == 0 {
		t.Errorf("expected capacity evictions, got %+v", tel.Megaflow)
	}
	if len(up.pkts) != 10 {
		t.Errorf("delivered %d packets, want 10", len(up.pkts))
	}
	if sw.ActiveMegaflows() > 4 {
		t.Errorf("megaflow cache exceeded its limit: %d", sw.ActiveMegaflows())
	}
}
