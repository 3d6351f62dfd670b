package vswitch

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/metrics"
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
	if sw.core.mega.Len() != 1 {
		t.Errorf("active megaflows = %d, want 1", sw.core.mega.Len())
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
	if sw.core.mega.Len() > 4 {
		t.Errorf("megaflow cache exceeded its limit: %d", sw.core.mega.Len())
	}
}

// mapMegaflows is the megaflow cache as it was before it moved onto
// flowTable — a Go map per mask, a size counter — kept as the oracle
// TestMegaflowAgainstMapOracle holds the flat one to.
type mapMegaflows struct {
	masks  []rules.FieldMask
	tables map[rules.FieldMask]map[packet.FlowKey]flowAction
	size   int
	limit  int
	stats  metrics.CacheCounters
}

func (c *mapMegaflows) lookup(k packet.FlowKey) (flowAction, bool) {
	for _, m := range c.masks {
		if a, ok := c.tables[m][m.Apply(k)]; ok {
			c.stats.Hits++
			return a, true
		}
	}
	c.stats.Misses++
	return flowAction{}, false
}

func (c *mapMegaflows) install(k packet.FlowKey, mask rules.FieldMask, a flowAction) {
	if c.size >= c.limit {
		c.flush()
	}
	tbl, ok := c.tables[mask]
	if !ok {
		tbl = make(map[packet.FlowKey]flowAction)
		c.tables[mask] = tbl
		c.masks = append(c.masks, mask)
	}
	mk := mask.Apply(k)
	if _, exists := tbl[mk]; !exists {
		c.size++
	}
	tbl[mk] = a
	c.stats.Installs++
}

func (c *mapMegaflows) invalidate(p rules.Pattern) int {
	n := 0
	for _, m := range c.masks {
		tbl := c.tables[m]
		for mk := range tbl {
			if p.Overlaps(m, mk) {
				delete(tbl, mk)
				n++
			}
		}
	}
	c.size -= n
	c.stats.Invalidations += uint64(n)
	return n
}

func (c *mapMegaflows) flush() {
	c.stats.Evictions += uint64(c.size)
	c.masks = c.masks[:0]
	clear(c.tables)
	c.size = 0
}

// TestMegaflowAgainstMapOracle drives random install / lookup / invalidate
// / flush through the flat megaflow cache and the map-of-maps it replaced,
// with a limit small enough to overflow: every lookup answers alike, and
// the population and the five counters agree after every step. Megaflows
// that cover one key agree on its action, as sound ones do (the two caches
// may probe their masks in different orders): here it is a function of the
// fields every mask pins and of a salt that changes only while both caches
// are empty.
func TestMegaflowAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	masks := []rules.FieldMask{
		{Tenant: true, SrcPrefix: 32, DstPrefix: 32},
		{Tenant: true, SrcPrefix: 32, DstPrefix: 32, DstPort: true},
		{Tenant: true, SrcPrefix: 32, DstPrefix: 32, DstPort: true, Proto: true},
		rules.ExactMask,
	}
	randKey := func() packet.FlowKey {
		return packet.FlowKey{Tenant: packet.TenantID(3 + rng.Intn(2)),
			Src: packet.MakeIP(10, 0, 0, byte(rng.Intn(6))), Dst: packet.MakeIP(10, 0, 9, byte(rng.Intn(6))),
			SrcPort: uint16(40000 + rng.Intn(3)), DstPort: uint16(80 + rng.Intn(8)), Proto: packet.ProtoTCP}
	}
	salt := int32(0)
	action := func(k packet.FlowKey) flowAction {
		return flowAction{kind: egressKind(1 + (uint32(k.Src)+uint32(k.Dst))%4), remote: k.Dst, bucket: int32(k.Src & 7), queue: salt}
	}
	const limit = 96
	flat := newMegaflowCache(limit)
	oracle := &mapMegaflows{tables: map[rules.FieldMask]map[packet.FlowKey]flowAction{}, limit: limit}
	for op := 0; op < 200_000; op++ {
		k := randKey()
		switch r := rng.Intn(100); {
		case r < 40:
			m := masks[rng.Intn(len(masks))]
			if got := flat.install(k, m, action(k)); got.key != m.Apply(k) || got.act != action(k) {
				t.Fatalf("op %d: install of %v under %+v returned %+v", op, k, m, got)
			}
			oracle.install(k, m, action(k))
		case r < 90:
			want, hit := oracle.lookup(k)
			if got := flat.lookup(k); (got != nil) != hit || hit && got.act != want {
				t.Fatalf("op %d: lookup of %v: flat %+v, oracle %+v %v", op, k, got, want, hit)
			}
		case r < 99:
			p := rules.Pattern{Tenant: k.Tenant}
			if rng.Intn(2) == 0 {
				p.Dst, p.DstPrefix = k.Dst, uint8(24+8*rng.Intn(2))
			}
			if rng.Intn(2) == 0 {
				p.DstPort = k.DstPort
			}
			if got, want := flat.invalidate(p), oracle.invalidate(p); got != want {
				t.Fatalf("op %d: invalidate %v removed %d, oracle %d", op, p, got, want)
			}
		default:
			flat.flush()
			oracle.flush()
			salt++
		}
		if flat.Len() != oracle.size || flat.stats != oracle.stats {
			t.Fatalf("op %d: flat holds %d with %+v, oracle %d with %+v", op, flat.Len(), flat.stats, oracle.size, oracle.stats)
		}
	}
	if s := flat.stats; s.Hits == 0 || s.Misses == 0 || s.Evictions == 0 || s.Invalidations == 0 || len(flat.masks) != len(masks) {
		t.Fatalf("the run did not exercise everything: %+v over %d masks", s, len(flat.masks))
	}
	for i, ft := range flat.tables {
		checkReachable(t, ft)
		if ft.evictions != 0 {
			t.Fatalf("mask %d's table overwrote %d megaflows inside a window", i, ft.evictions)
		}
	}
}

// TestPromotedActionEqualsResolve: an exact entry installed by a megaflow
// hit (plane a: a sibling flow walks the tables first) carries exactly the
// flowAction, hash and bucket included, of one installed by its own table
// walk plus resolve (plane b) — for every egress outcome, from a shaped and
// an unshaped source, and again after an epoch whose keepBuckets re-packs
// the bucket indices.
func TestPromotedActionEqualsResolve(t *testing.T) {
	remote, unmapped := packet.MakeIP(10, 0, 9, 1), packet.MakeIP(10, 0, 9, 2)
	vmC := VMKey{Tenant: 3, IP: packet.MakeIP(10, 0, 0, 3)} // attached, never shaped
	build := func(tunneling bool) (*ShardedPlane, *PlaneInjector) {
		pl := NewShardedPlane(PlaneConfig{Shards: 1, Tunneling: tunneling, ServerIP: srvA, Now: func() time.Duration { return 0 }})
		t.Cleanup(pl.Close)
		for _, vm := range []VMKey{vmA, vmB, vmC} {
			pl.AttachVM(vm, &rules.VMRules{Tenant: 3, VMIP: vm.IP, Security: []rules.SecurityRule{
				{Pattern: rules.Pattern{Tenant: 3, DstPort: 22}, Action: rules.Deny, Priority: 2},
				{Pattern: rules.Pattern{Tenant: 3}, Action: rules.Allow, Priority: 1},
			}, QoS: []rules.QoSRule{{Pattern: rules.Pattern{Tenant: 3, DstPort: 80}, Queue: 2, Priority: 1}}})
		}
		pl.SetVIFLimit(vmA, 40e9)
		pl.SetVIFLimit(vmB, 10e9)
		pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: remote, Remote: srvB})
		// vmA's bucket is made first and vmB's second, at indices 0 and 1.
		inj := pl.NewInjector()
		inj.Egress(vmA, packet.NewTCP(3, vmA.IP, remote, 1, 8443, 100))
		inj.Egress(vmB, packet.NewTCP(3, vmB.IP, remote, 1, 8443, 100))
		inj.Flush()
		return pl, inj
	}
	for _, tc := range []struct {
		name   string
		src    VMKey
		dst    packet.IP
		dport  uint16
		plain  bool // tunnelling off
		want   egressKind
		shaped bool // the action names vmB's bucket
	}{
		{name: "deny", src: vmB, dst: remote, dport: 22, want: egressDeny},
		{name: "local-shaped", src: vmB, dst: vmC.IP, dport: 80, want: egressLocal, shaped: true},
		{name: "plain-shaped", src: vmB, dst: remote, dport: 443, plain: true, want: egressPlain, shaped: true},
		{name: "plain-unshaped", src: vmC, dst: remote, dport: 443, plain: true, want: egressPlain},
		{name: "tunnel-shaped", src: vmB, dst: remote, dport: 80, want: egressTunnel, shaped: true},
		{name: "tunnel-unshaped", src: vmC, dst: remote, dport: 443, want: egressTunnel},
		{name: "no-tunnel", src: vmB, dst: unmapped, dport: 443, want: egressNoTunnel, shaped: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sibling := packet.NewTCP(3, tc.src.IP, tc.dst, 40001, tc.dport, 100)
			flow := packet.NewTCP(3, tc.src.IP, tc.dst, 40002, tc.dport, 100)
			a, injA := build(!tc.plain)
			b, injB := build(!tc.plain)
			k, h := flow.Key(), flowSlotHash(flow.Key())
			check := func(stage string, bucket int32) {
				t.Helper()
				hitsA, hitsB := a.Counters().Megaflow.Hits, b.Counters().Megaflow.Hits
				injA.Egress(tc.src, sibling)
				injA.Egress(tc.src, flow)
				injA.Flush()
				injB.Egress(tc.src, flow)
				injB.Flush()
				if hitsA, hitsB = a.Counters().Megaflow.Hits-hitsA, b.Counters().Megaflow.Hits-hitsB; hitsA != 1 || hitsB != 0 {
					t.Fatalf("%s: %d megaflow hits on a, %d on b: want the flow promoted on a and walked on b", stage, hitsA, hitsB)
				}
				promoted, walked := a.shards[0].core.exact.lookup(k, h), b.shards[0].core.exact.lookup(k, h)
				if promoted == nil || walked == nil || promoted.act != walked.act {
					t.Fatalf("%s: promoted %+v, walked %+v", stage, promoted, walked)
				}
				act := promoted.act
				if act.kind != tc.want || (act.kind == egressTunnel) != (act.hash == k.FastHash() && act.hash != 0) {
					t.Fatalf("%s: action %+v, want kind %d with the hash on a tunnelled flow only", stage, act, tc.want)
				}
				if !tc.shaped {
					bucket = noBucket
				}
				if act.bucket != bucket || tc.shaped && a.shards[0].buckets[bucket].key != vmB {
					t.Fatalf("%s: bucket %d, want %d", stage, act.bucket, bucket)
				}
			}
			check("first epoch", 1)
			// vmA's limit goes: its bucket is dropped and vmB's moves down to
			// index 0. An action that outlived the flush would name index 1.
			a.SetVIFLimit(vmA, 0)
			b.SetVIFLimit(vmA, 0)
			check("after the re-pack", 0)
		})
	}
}
