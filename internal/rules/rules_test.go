package rules

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
)

var testKey = packet.FlowKey{
	Src:     packet.MustParseIP("10.0.0.1"),
	Dst:     packet.MustParseIP("10.0.0.2"),
	SrcPort: 40000, DstPort: 11211,
	Proto:  packet.ProtoTCP,
	Tenant: 3,
}

func TestExactPatternMatchesOnlyItsFlow(t *testing.T) {
	p := ExactPattern(testKey)
	if !p.Match(testKey) {
		t.Fatal("exact pattern does not match its own key")
	}
	if p.AnyTenant || p.SrcPrefix != 32 || p.DstPrefix != 32 || p.SrcPort == 0 || p.DstPort == 0 || p.Proto == 0 {
		t.Errorf("ExactPattern %v wildcards a field", p)
	}
	variants := []func(*packet.FlowKey){
		func(k *packet.FlowKey) { k.Src++ },
		func(k *packet.FlowKey) { k.Dst++ },
		func(k *packet.FlowKey) { k.SrcPort++ },
		func(k *packet.FlowKey) { k.DstPort++ },
		func(k *packet.FlowKey) { k.Proto = packet.ProtoUDP },
		func(k *packet.FlowKey) { k.Tenant++ },
	}
	for i, mut := range variants {
		k := testKey
		mut(&k)
		if p.Match(k) {
			t.Errorf("variant %d matched exact pattern", i)
		}
	}
}

func TestPatternPrefixMatch(t *testing.T) {
	p := Pattern{Tenant: 3, Dst: packet.MustParseIP("10.0.0.0"), DstPrefix: 24}
	if !p.Match(testKey) {
		t.Error("24-bit prefix should match 10.0.0.2")
	}
	k := testKey
	k.Dst = packet.MustParseIP("10.0.1.2")
	if p.Match(k) {
		t.Error("24-bit prefix matched outside subnet")
	}
}

func TestPatternTenantWildcard(t *testing.T) {
	p := Pattern{AnyTenant: true, DstPort: 11211}
	if !p.Match(testKey) {
		t.Error("AnyTenant pattern should match")
	}
	k := testKey
	k.Tenant = 99
	if !p.Match(k) {
		t.Error("AnyTenant pattern should match other tenants")
	}
}

func TestAggregatePattern(t *testing.T) {
	// Ingress aggregate of the memcached service: all flows to
	// <VM IP, 11211, tenant> match, regardless of client.
	agg := testKey.IngressAggregate()
	p := AggregatePattern(agg)
	if !p.Match(testKey) {
		t.Fatal("aggregate pattern does not match member flow")
	}
	k := testKey
	k.Src = packet.MustParseIP("10.0.0.99")
	k.SrcPort = 55555
	if !p.Match(k) {
		t.Error("aggregate should match any client of the service")
	}
	k.DstPort = 80
	if p.Match(k) {
		t.Error("aggregate matched a different service port")
	}
	// Egress direction pins the source side.
	pe := AggregatePattern(testKey.EgressAggregate())
	if !pe.Match(testKey) {
		t.Error("egress aggregate does not match member flow")
	}
	k2 := testKey
	k2.Src = packet.MustParseIP("10.9.9.9")
	if pe.Match(k2) {
		t.Error("egress aggregate matched foreign source")
	}
}

func TestSpecificityOrdering(t *testing.T) {
	exact := ExactPattern(testKey)
	agg := AggregatePattern(testKey.IngressAggregate())
	tenant := TenantPattern(3)
	if !(exact.Specificity() > agg.Specificity() && agg.Specificity() > tenant.Specificity()) {
		t.Errorf("specificity ordering broken: exact=%d agg=%d tenant=%d",
			exact.Specificity(), agg.Specificity(), tenant.Specificity())
	}
}

func TestVMRulesDefaultDeny(t *testing.T) {
	v := &VMRules{Tenant: 3, VMIP: testKey.Src}
	if v.Evaluate(testKey) != Deny {
		t.Error("empty rule set should default-deny")
	}
}

func TestVMRulesPriorityAndTieBreak(t *testing.T) {
	v := &VMRules{Tenant: 3, VMIP: testKey.Src}
	v.Security = append(v.Security,
		SecurityRule{Pattern: TenantPattern(3), Action: Allow, Priority: 1},
		SecurityRule{Pattern: ExactPattern(testKey), Action: Deny, Priority: 5},
	)
	if v.Evaluate(testKey) != Deny {
		t.Error("higher-priority deny should win")
	}
	// Equal priority: more specific wins.
	v2 := &VMRules{Tenant: 3}
	v2.Security = append(v2.Security,
		SecurityRule{Pattern: TenantPattern(3), Action: Deny, Priority: 1},
		SecurityRule{Pattern: ExactPattern(testKey), Action: Allow, Priority: 1},
	)
	if v2.Evaluate(testKey) != Allow {
		t.Error("more specific rule should break priority tie")
	}
}

func TestQueueFor(t *testing.T) {
	v := &VMRules{Tenant: 3}
	v.QoS = append(v.QoS,
		QoSRule{Pattern: TenantPattern(3), Queue: 1, Priority: 1},
		QoSRule{Pattern: ExactPattern(testKey), Queue: 3, Priority: 9},
	)
	if q := v.QueueFor(testKey); q != 3 {
		t.Errorf("QueueFor = %d, want 3", q)
	}
	other := testKey
	other.DstPort = 80
	if q := v.QueueFor(other); q != 1 {
		t.Errorf("QueueFor(other) = %d, want 1", q)
	}
	empty := &VMRules{}
	if q := empty.QueueFor(testKey); q != 0 {
		t.Errorf("QueueFor with no rules = %d, want 0", q)
	}
}

func TestExactTable(t *testing.T) {
	tbl := NewExactTable[Action]()
	if tbl.Lookup(testKey) != nil {
		t.Error("lookup in empty table should miss")
	}
	e := tbl.Install(testKey, Allow)
	e.Stats.Hit(100, time.Second)
	e.Stats.Hit(200, 2*time.Second)
	got := tbl.Lookup(testKey)
	if got == nil || got.Value != Allow {
		t.Fatal("installed entry not found")
	}
	if got.Stats.Packets != 2 || got.Stats.Bytes != 300 || got.Stats.LastSeen != 2*time.Second {
		t.Errorf("stats = %+v", got.Stats)
	}
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	if !tbl.Remove(testKey) || tbl.Remove(testKey) {
		t.Error("Remove semantics wrong")
	}
}

func TestTCAMCapacity(t *testing.T) {
	tc := NewTCAM(2)
	if err := tc.Insert(&TCAMEntry{Pattern: ExactPattern(testKey), Action: Allow}); err != nil {
		t.Fatal(err)
	}
	k2 := testKey
	k2.DstPort = 80
	if err := tc.Insert(&TCAMEntry{Pattern: ExactPattern(k2), Action: Allow}); err != nil {
		t.Fatal(err)
	}
	k3 := testKey
	k3.DstPort = 443
	if err := tc.Insert(&TCAMEntry{Pattern: ExactPattern(k3), Action: Allow}); !errors.Is(err, ErrTCAMFull) {
		t.Errorf("expected ErrTCAMFull, got %v", err)
	}
	if tc.Free() != 0 || tc.Len() != 2 {
		t.Errorf("Free=%d Len=%d", tc.Free(), tc.Len())
	}
	if n := tc.Remove(ExactPattern(k2)); n != 1 {
		t.Errorf("Remove = %d, want 1", n)
	}
	if tc.Free() != 1 {
		t.Errorf("Free after remove = %d", tc.Free())
	}
}

func TestTCAMPriorityLookup(t *testing.T) {
	tc := NewTCAM(10)
	must := func(e *TCAMEntry) {
		t.Helper()
		if err := tc.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	must(&TCAMEntry{Pattern: TenantPattern(3), Priority: 1, Action: Allow})
	must(&TCAMEntry{Pattern: ExactPattern(testKey), Priority: 5, Action: Deny})
	if e := tc.Lookup(testKey); e == nil || e.Action != Deny {
		t.Error("high-priority exact rule should win")
	}
	other := testKey
	other.DstPort = 80
	if e := tc.Lookup(other); e == nil || e.Action != Allow {
		t.Error("tenant-wide rule should match other flows")
	}
	foreign := testKey
	foreign.Tenant = 9
	if tc.Lookup(foreign) != nil {
		t.Error("foreign tenant matched")
	}
	// Lookup after a post-sort insert must still order correctly.
	must(&TCAMEntry{Pattern: ExactPattern(other), Priority: 9, Action: Deny})
	if e := tc.Lookup(other); e == nil || e.Action != Deny {
		t.Error("entry inserted after lookup not prioritized")
	}
}

func TestTunnelTable(t *testing.T) {
	tt := NewTunnelTable()
	m := TunnelMapping{Tenant: 3, VMIP: testKey.Dst, Remote: packet.MustParseIP("192.168.1.20")}
	tt.Set(m)
	got, ok := tt.Lookup(3, testKey.Dst)
	if !ok || got.Remote != m.Remote {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	// Overlapping tenant address spaces: same VM IP, different tenant.
	if _, ok := tt.Lookup(4, testKey.Dst); ok {
		t.Error("lookup crossed tenants")
	}
	if !tt.Remove(3, testKey.Dst) || tt.Remove(3, testKey.Dst) {
		t.Error("Remove semantics wrong")
	}
	if len(tt.m) != 0 {
		t.Errorf("Len = %d", len(tt.m))
	}
}

// Property: a pattern built from any key matches that key, and
// VMRules.Evaluate equals the linear reference over the same rules.
func TestEvaluateConsistencyProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, tenant uint8, prios []uint8) bool {
		k := packet.FlowKey{Src: packet.IP(src), Dst: packet.IP(dst),
			SrcPort: sp, DstPort: dp, Proto: packet.ProtoTCP, Tenant: packet.TenantID(tenant)}
		if !ExactPattern(k).Match(k) {
			return false
		}
		v := &VMRules{Tenant: k.Tenant}
		for i, p := range prios {
			r := SecurityRule{Pattern: TenantPattern(k.Tenant), Priority: int(p)}
			if i%2 == 0 {
				r.Action = Allow
				r.Pattern = ExactPattern(k)
			}
			v.Security = append(v.Security, r)
		}
		return v.Evaluate(k) == v.EvaluateLinear(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPatternString(t *testing.T) {
	p := ExactPattern(testKey)
	s := p.String()
	if s == "" {
		t.Error("empty String")
	}
	for _, want := range []string{"t3", "10.0.0.1/32:40000", "11211", "tcp"} {
		if !contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	if got := (Pattern{AnyTenant: true}).String(); !contains(got, "t*") {
		t.Errorf("wildcard tenant String = %q", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
