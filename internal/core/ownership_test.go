package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/vswitch"
)

// scribble overwrites every value reachable from v — struct fields, slice
// elements, pointees — with a different one, the way a Conn's next frame
// overwrites the report it decoded before.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(^v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(^v.Uint())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(-v.Float() - 1)
	}
}

// TestHandlersKeepNoMessage pins the openflow.Handler rule on every
// controller: after HandleMessage returns, the caller may overwrite the
// message and every slice in it (Conn.Recv decodes the next report into
// the same one) without the controller's state moving.
func TestHandlersKeepNoMessage(t *testing.T) {
	tb := newTestbed(t, fastCfg())
	tc, lc, agent := tb.mgr.TORCtl, tb.mgr.Locals[0], tb.mgr.agents[0]
	term := tc.Term()
	pat := func(port uint16) rules.Pattern {
		return rules.AggregatePattern(packet.AggregateKey{Tenant: 3, VMIP: clientIP, Port: port})
	}
	entries := func(ports ...uint16) []openflow.DemandEntry {
		var out []openflow.DemandEntry
		for _, p := range ports {
			out = append(out, openflow.DemandEntry{Pattern: pat(p), PPS: 1e4, BPS: 8e7,
				Epoch: 1, MedianPPS: 1e4, MedianBPS: 8e7, ActiveEpochs: 2})
		}
		return out
	}
	split := openflow.RateSplit{Tenant: 3, VMIP: clientIP, EgressSoftBps: 1e9, EgressHardBps: 2e9,
		IngressSoftBps: 1e9, IngressHardBps: 2e9}
	state := func() string {
		return fmt.Sprintf("%+v\n%+v\n%+v\n%+v", tc, lc, agent, agent.tor.Rules())
	}

	for _, step := range []struct {
		h   openflow.Handler
		msg openflow.Message
	}{
		{tc, &openflow.DemandReport{ServerID: 0, Interval: 1, Entries: entries(1, 2, 3),
			Splits: []openflow.RateSplit{split}, NICFree: 4, NICPatterns: []rules.Pattern{pat(4), pat(5)},
			Sketch: &openflow.SketchMeta{TopK: 8, Width: 64, Depth: 4, Floor: 2, Evictions: 1}}},
		{tc, &openflow.DemandReport{ServerID: 0, Interval: 1, Entries: entries(6, 7)}},
		{tc, &openflow.DemandReport{ServerID: 0, Interval: 2, Entries: entries(8),
			NICPatterns: []rules.Pattern{pat(9)}}},
		{tc, &openflow.SyncAck{ServerID: 0, Seq: 1, Term: term}},
		{lc, &openflow.RuleSync{Seq: 1, Patterns: []rules.Pattern{pat(1), pat(2)}, Term: term}},
		{lc, &openflow.RuleSync{Seq: 2, Patterns: []rules.Pattern{pat(3)}, Term: term,
			Delta: true, Base: 1, Removes: []rules.Pattern{pat(1)}}},
		{lc, &openflow.RuleSync{Seq: 3, Patterns: []rules.Pattern{pat(4)}, Term: term, Part: 0, Parts: 2}},
		{lc, &openflow.RuleSync{Seq: 3, Patterns: []rules.Pattern{pat(5)}, Term: term, Part: 1, Parts: 2}},
		{lc, &openflow.OffloadDecision{Interval: 1, Term: term,
			Actions: []openflow.OffloadAction{{Pattern: pat(6), Offload: true}, {Pattern: pat(4)}},
			HWRates: []openflow.VMRate{{Tenant: 3, VMIP: clientIP, EgressBps: 1e8, IngressMaxed: true}}}},
		{agent, &openflow.FlowMod{Command: openflow.FlowAdd, Pattern: pat(7), Priority: 10,
			Out: openflow.PathVF, Cookie: 1, Term: term}},
	} {
		before := state()
		step.h.HandleMessage(step.msg, 1, func(openflow.Message, uint32) {})
		want := state()
		if want == before {
			t.Fatalf("%s %+v left the state as it was: the step tests nothing", step.msg.Type(), step.msg)
		}
		scribble(reflect.ValueOf(step.msg))
		if state() != want {
			t.Errorf("overwriting a %s after HandleMessage returned changed %T's state: it kept part of the message",
				step.msg.Type(), step.h)
		}
	}
}

// TestUnattachedServerChangesNothing: a demand report, sync ack or
// overload hint naming a ServerID no agent is attached under leaves the
// controller as it was; the same message from an attached agent does not.
func TestUnattachedServerChangesNothing(t *testing.T) {
	tb := newTestbed(t, fastCfg())
	tb.echo(11211, 600)
	tb.drive(40000, 11211, 3000, 100)
	tb.mgr.Start()
	tb.c.Eng.RunUntil(2 * time.Second)
	tc := tb.mgr.TORCtl
	pat := rules.AggregatePattern(packet.AggregateKey{Tenant: 3, VMIP: clientIP, Port: 9})
	msgs := func(id uint32) []openflow.Message {
		return []openflow.Message{
			&openflow.DemandReport{ServerID: id, Interval: 1 << 20,
				Entries: []openflow.DemandEntry{{Pattern: pat, PPS: 1e6, BPS: 8e9, Epoch: 1,
					MedianPPS: 1e6, MedianBPS: 8e9, ActiveEpochs: 2}},
				Splits:  []openflow.RateSplit{{Tenant: 3, VMIP: serverIP, EgressHardBps: 1e3, IngressHardBps: 1e3}},
				NICFree: 4, NICPatterns: []rules.Pattern{pat}},
			&openflow.SyncAck{ServerID: id, Seq: tc.sync.seq + 1, Term: tc.Term()},
			&openflow.OverloadHint{ServerID: id, Tenant: 3, Overloaded: true, MissPPS: 1e5},
		}
	}
	attached := msgs(0)
	for i, msg := range msgs(99) {
		before := fmt.Sprintf("%+v", tc)
		tc.HandleMessage(msg, 1, func(openflow.Message, uint32) {})
		if fmt.Sprintf("%+v", tc) != before {
			t.Errorf("a %s from unattached server 99 changed the controller", msg.Type())
		}
		tc.HandleMessage(attached[i], 1, func(openflow.Message, uint32) {})
		if fmt.Sprintf("%+v", tc) == before {
			t.Fatalf("a %s from attached server 0 left the controller as it was: the step tests nothing", msg.Type())
		}
	}
}

// TestSplitsAndHintsStayOnTheirServer: an agent's rate split for a VM the
// cluster places on another server, and its overload hint for a tenant the
// cluster places only on other servers, change nothing; the same messages
// from the server that hosts them do.
func TestSplitsAndHintsStayOnTheirServer(t *testing.T) {
	tb := newTestbed(t, fastCfg())
	const other = packet.TenantID(5) // lives on server 1 only
	if _, err := tb.c.AddVM(1, other, packet.MustParseIP("10.5.0.1"), 1, nil); err != nil {
		t.Fatal(err)
	}
	tb.mgr.Start()
	tb.c.Eng.RunUntil(2 * time.Second)
	tc := tb.mgr.TORCtl
	server := vswitch.VMKey{Tenant: 3, IP: serverIP}
	split := func(id uint32) *openflow.DemandReport {
		return &openflow.DemandReport{ServerID: id, Interval: 1 << 20,
			Splits: []openflow.RateSplit{{Tenant: 3, VMIP: serverIP, EgressHardBps: 1e3, IngressHardBps: 1e3}}}
	}
	hint := func(id uint32) *openflow.OverloadHint {
		return &openflow.OverloadHint{ServerID: id, Tenant: other, Overloaded: true, MissPPS: 1e5}
	}
	noReply := func(openflow.Message, uint32) {}

	tc.HandleMessage(split(0), 1, noReply)
	if got := tc.installedHW[server]; got.EgressHardBps == 1e3 {
		t.Errorf("server 0 set the hard limits of server 1's VM: %+v", got)
	}
	tc.HandleMessage(split(1), 1, noReply)
	if got := tc.installedHW[server]; got.EgressHardBps != 1e3 || got.IngressHardBps != 1e3 {
		t.Fatalf("server 1's split for its own VM not applied: %+v", got)
	}

	hints := tc.Hints
	tc.HandleMessage(hint(0), 1, noReply)
	if _, boosted := tc.urgent[other]; boosted || tc.Hints != hints {
		t.Errorf("server 0's hint boosted tenant %d, whose VMs all live on server 1", other)
	}
	tc.HandleMessage(hint(1), 1, noReply)
	if _, boosted := tc.urgent[other]; !boosted {
		t.Fatalf("server 1's hint did not boost its own tenant %d", other)
	}
}
