package rules

import (
	"fmt"
	"testing"

	"repro/internal/packet"
)

// The fast-path acceptance benchmarks: tuple-space classification against
// the seed linear scans, at the 1k-rule scale of a loaded multi-tenant
// hypervisor. Run with `go test -run '^$' -bench . ./internal/rules`.

// benchRuleSet builds n security rules drawn from a handful of templates
// (the realistic shape: tenant ACLs are generated from few policy forms),
// yielding a small number of distinct tuples over many rules.
func benchRuleSet(n int) []SecurityRule {
	rs := make([]SecurityRule, 0, n)
	for i := 0; i < n; i++ {
		var p Pattern
		p.Tenant = packet.TenantID(3)
		switch i % 4 {
		case 0: // per-destination-subnet allow
			p.Dst = packet.IP(0x0a000000 | uint32(i)<<8)
			p.DstPrefix = 24
		case 1: // per-service allow
			p.DstPort = uint16(1024 + i%5000)
			p.Proto = packet.ProtoTCP
		case 2: // per-peer exact
			p.Src = packet.IP(0x0a000000 | uint32(i))
			p.SrcPrefix = 32
			p.Dst = packet.IP(0x0b000000 | uint32(i))
			p.DstPrefix = 32
		case 3: // protocol-wide
			p.Proto = packet.ProtoUDP
		}
		rs = append(rs, SecurityRule{Pattern: p, Action: Action(i % 2), Priority: i % 8})
	}
	return rs
}

func benchKeys(n int) []packet.FlowKey {
	ks := make([]packet.FlowKey, n)
	for i := range ks {
		ks[i] = packet.FlowKey{
			Tenant:  3,
			Src:     packet.IP(0x0a000000 | uint32(i)),
			Dst:     packet.IP(0x0a000000 | uint32(i%7)<<8 | 9),
			SrcPort: uint16(40000 + i%1000),
			DstPort: uint16(1024 + i%5000),
			Proto:   packet.ProtoTCP,
		}
	}
	return ks
}

// BenchmarkClassify1kRules compares the seed linear scan against the
// tuple-space classifier on the same 1000-rule table — the slow-path
// cost the megaflow/upcall path pays per miss.
func BenchmarkClassify1kRules(b *testing.B) {
	rs := benchRuleSet(1000)
	keys := benchKeys(4096)
	v := &VMRules{Tenant: 3, Security: rs}

	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v.EvaluateLinear(keys[i%len(keys)])
		}
	})
	b.Run("tuplespace", func(b *testing.B) {
		v.Evaluate(keys[0]) // build the index outside the timer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Evaluate(keys[i%len(keys)])
		}
	})
}

// BenchmarkTCAM1kRules compares hardware-table lookups: sorted-slice
// first-match scan versus the tuple-space index.
func BenchmarkTCAM1kRules(b *testing.B) {
	rs := benchRuleSet(1000)
	tc := NewTCAM(1000)
	for i := range rs {
		if err := tc.Insert(&TCAMEntry{Pattern: rs[i].Pattern, Priority: rs[i].Priority, Action: rs[i].Action}); err != nil {
			b.Fatal(err)
		}
	}
	keys := benchKeys(4096)
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.LookupLinear(keys[i%len(keys)])
		}
	})
	b.Run("tuplespace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.Lookup(keys[i%len(keys)])
		}
	})
}

// BenchmarkTCAMInsert measures rule installation, which the seed paid for
// lazily with a full re-sort on the next lookup and the table now pays
// with a binary-search splice.
func BenchmarkTCAMInsert(b *testing.B) {
	rs := benchRuleSet(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc := NewTCAM(len(rs))
		for j := range rs {
			if err := tc.Insert(&TCAMEntry{Pattern: rs[j].Pattern, Priority: rs[j].Priority}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTupleSpaceScaling shows lookup cost tracking the number of
// distinct tuples, not the number of rules.
func BenchmarkTupleSpaceScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("rules=%d", n), func(b *testing.B) {
			ts := NewTupleSpace[Action]()
			for _, r := range benchRuleSet(n) {
				ts.Insert(r.Pattern, r.Priority, r.Action)
			}
			keys := benchKeys(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.Lookup(keys[i%len(keys)])
			}
		})
	}
}

// aggregatePatterns returns n per-VM aggregate patterns of the shape a
// control interval reports (8 tenants, 16 VMs, ports sharing long decimal
// prefixes), all under one field mask.
func aggregatePatterns(n int) []Pattern {
	pats := make([]Pattern, n)
	for i := range pats {
		pats[i] = AggregatePattern(packet.AggregateKey{
			Tenant: packet.TenantID(1 + i%8),
			VMIP:   packet.IP(0x0a000000 | uint32(i*7%16+1)),
			Port:   uint16(1000 + i*37%4096),
			Dir:    packet.Direction(i % 2),
		})
	}
	return pats
}

// BenchmarkSortPatterns1536 sorts one control interval's worth of reported
// aggregate patterns into canonical order — what a ToR decision tick would
// pay if it re-sorted every pattern it ranks instead of keeping the order
// across ticks.
func BenchmarkSortPatterns1536(b *testing.B) {
	pats := aggregatePatterns(1536)
	work := make([]Pattern, len(pats))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, pats)
		SortPatterns(work, func(p *Pattern) Pattern { return *p })
	}
}

// BenchmarkTCAMRemoveFull640 removes one entry from a full 640-entry TCAM
// whose entries share one priority and one field mask — a demotion at the
// control tick's steady state — and installs it again to stay full.
func BenchmarkTCAMRemoveFull640(b *testing.B) {
	pats := aggregatePatterns(640)
	tc := NewTCAM(len(pats))
	for _, p := range pats {
		if err := tc.Insert(&TCAMEntry{Pattern: p, Priority: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pats[i%len(pats)]
		if tc.Remove(p) != 1 {
			b.Fatal("entry missing")
		}
		if err := tc.Insert(&TCAMEntry{Pattern: p, Priority: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
