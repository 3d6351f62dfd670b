package flowplacer

import (
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

var memcachedKey = packet.FlowKey{
	Src: packet.MustParseIP("10.0.0.1"), Dst: packet.MustParseIP("10.0.0.2"),
	SrcPort: 40000, DstPort: 11211, Proto: packet.ProtoTCP, Tenant: 3,
}

func flowModAdd(p rules.Pattern, out openflow.Path, prio uint16) *openflow.FlowMod {
	return &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: p, Out: out, Priority: prio}
}

func place(pl *Placer, k packet.FlowKey) openflow.Path {
	return pl.Place(packet.FromKey(k, 100), time.Second)
}

func TestDefaultPathIsVIF(t *testing.T) {
	pl := New()
	if got := place(pl, memcachedKey); got != openflow.PathVIF {
		t.Errorf("default path = %v, want vif", got)
	}
}

func TestDataPlaneCachesDecision(t *testing.T) {
	pl := New()
	// One classification installs the flow; every later packet hits
	// the same exact entry.
	for i := 0; i < 11; i++ {
		place(pl, memcachedKey)
	}
	if e := pl.exact.Lookup(memcachedKey); e == nil || e.Stats.Packets != 11 {
		t.Errorf("exact entry after 11 packets = %+v, want one entry that saw all 11", e)
	}
	if pl.exact.Len() != 1 {
		t.Errorf("active flows = %d", pl.exact.Len())
	}
}

func TestFlowModRedirectsFlows(t *testing.T) {
	pl := New()
	agg := rules.AggregatePattern(memcachedKey.IngressAggregate())
	pl.HandleMessage(flowModAdd(agg, openflow.PathVF, 10), 1, nil)
	if got := place(pl, memcachedKey); got != openflow.PathVF {
		t.Errorf("path = %v, want vf", got)
	}
	// Unrelated flow stays on VIF.
	other := memcachedKey
	other.DstPort = 22
	if got := place(pl, other); got != openflow.PathVIF {
		t.Errorf("unrelated path = %v, want vif", got)
	}
}

func TestFlowModMigratesActiveFlow(t *testing.T) {
	// The Table 4 / Fig 12 mechanism: an active flow's cached exact
	// entry must be invalidated when a covering wildcard arrives, so
	// its next packet re-classifies onto the new path.
	pl := New()
	place(pl, memcachedKey) // cached on VIF
	agg := rules.AggregatePattern(memcachedKey.IngressAggregate())
	pl.HandleMessage(flowModAdd(agg, openflow.PathVF, 10), 1, nil)
	if got := place(pl, memcachedKey); got != openflow.PathVF {
		t.Errorf("active flow not migrated: %v", got)
	}
	// Demotion: delete the rule, flow returns to VIF.
	pl.HandleMessage(&openflow.FlowMod{Command: openflow.FlowDelete, Pattern: agg}, 2, nil)
	if got := place(pl, memcachedKey); got != openflow.PathVIF {
		t.Errorf("demoted flow path = %v, want vif", got)
	}
}

func TestFlowModReplacesSamePattern(t *testing.T) {
	pl := New()
	agg := rules.AggregatePattern(memcachedKey.IngressAggregate())
	pl.HandleMessage(flowModAdd(agg, openflow.PathVF, 10), 1, nil)
	pl.HandleMessage(flowModAdd(agg, openflow.PathVIF, 10), 2, nil)
	if pl.RuleCount() != 1 {
		t.Errorf("rule count = %d, want 1 (replace)", pl.RuleCount())
	}
	if got := place(pl, memcachedKey); got != openflow.PathVIF {
		t.Errorf("replaced rule not applied: %v", got)
	}
}

func TestPriorityAndSpecificity(t *testing.T) {
	pl := New()
	// Tenant-wide to VF at low priority; exact flow to VIF at high.
	pl.HandleMessage(flowModAdd(rules.TenantPattern(3), openflow.PathVF, 1), 1, nil)
	pl.HandleMessage(flowModAdd(rules.ExactPattern(memcachedKey), openflow.PathVIF, 9), 2, nil)
	if got := place(pl, memcachedKey); got != openflow.PathVIF {
		t.Errorf("high-priority exact rule lost: %v", got)
	}
	other := memcachedKey
	other.SrcPort = 50000
	if got := place(pl, other); got != openflow.PathVF {
		t.Errorf("tenant rule not applied: %v", got)
	}
}

func TestBarrierAndEcho(t *testing.T) {
	pl := New()
	var got []openflow.MsgType
	rec := func(m openflow.Message, _ uint32) { got = append(got, m.Type()) }
	pl.HandleMessage(&openflow.BarrierRequest{}, 1, rec)
	pl.HandleMessage(openflow.EchoRequest{}, 2, rec)
	if len(got) != 2 || got[0] != openflow.TypeBarrierReply || got[1] != openflow.TypeEchoReply {
		t.Errorf("replies = %v", got)
	}
}
