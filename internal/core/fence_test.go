package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

// sendTap records every message a transport delivers, then hands it to
// the receiver. A test puts one in front of a receiver by wiring the
// connection again with openflow.Pair.
type sendTap struct {
	h    openflow.Handler
	seen *[]openflow.Message
}

func (s sendTap) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	*s.seen = append(*s.seen, msg)
	s.h.HandleMessage(msg, xid, reply)
}

// checkTermOne fails unless every fenced message a controller sent
// carries term 1 from replica 0, and each fenced type was sent.
func checkTermOne(t *testing.T, who string, msgs []openflow.Message) {
	t.Helper()
	sent := make(map[openflow.MsgType]int)
	for _, msg := range msgs {
		var term, origin uint32
		switch m := msg.(type) {
		case *openflow.FlowMod:
			term, origin = m.Term, m.Origin
		case *openflow.RuleSync:
			term, origin = m.Term, m.Origin
		case *openflow.OffloadDecision:
			term, origin = m.Term, m.Origin
		case *openflow.TableRequest:
			term, origin = m.Term, m.Origin
		default:
			continue
		}
		sent[msg.Type()]++
		if term != 1 || origin != 0 {
			t.Errorf("%s: a %s carries term %d from replica %d, want term 1 from replica 0", who, msg.Type(), term, origin)
		}
	}
	for _, typ := range []openflow.MsgType{openflow.TypeFlowMod, openflow.TypeRuleSync, openflow.TypeOffloadDecision, openflow.TypeTableRequest} {
		if sent[typ] == 0 {
			t.Errorf("%s sent no %s", who, typ)
		}
	}
}

// checkStaleRefused hands the rack's agent a term-0 add of a new rule and
// a term-0 delete of an installed one: both must be refused as stale, and
// the TCAM must hold what it held.
func checkStaleRefused(t *testing.T, who string, m *Manager) {
	t.Helper()
	if fenced, conflicts := m.FenceStats(); fenced != 0 || conflicts != 0 {
		t.Errorf("%s: a group of one fenced %d messages and saw %d term conflicts", who, fenced, conflicts)
	}
	a := m.agents[0]
	held := a.tor.Rules()
	if len(held) == 0 {
		t.Fatalf("%s: the leader installed nothing", who)
	}
	stranger := rules.Pattern{Tenant: 99, Dst: packet.MustParseIP("10.99.0.1"), DstPrefix: 32}
	for _, mod := range []*openflow.FlowMod{
		{Command: openflow.FlowAdd, Pattern: stranger, Priority: hwPriority},
		{Command: openflow.FlowDelete, Pattern: held[0].Pattern},
	} {
		var reply openflow.Message
		a.HandleMessage(mod, 1, func(msg openflow.Message, _ uint32) { reply = msg })
		if e, ok := reply.(*openflow.ErrorMsg); !ok || e.Code != openflow.ErrCodeStaleTerm {
			t.Errorf("%s: an unfenced %v of %v is answered %+v, want a stale-term error", who, mod.Command, mod.Pattern, reply)
		}
	}
	if a.tor.TCAMUsed() != len(held) || !a.tor.HasRule(held[0]) {
		t.Errorf("%s: unfenced mods changed the TCAM: %d rules, had %d", who, a.tor.TCAMUsed(), len(held))
	}
}

// TestGroupOfOneIsFenced: a single controller, in-sim or as the ToR
// service, leads term 1 as replica 0, every message it sends is fenced,
// and its agent refuses an unfenced mod.
func TestGroupOfOneIsFenced(t *testing.T) {
	t.Run("attach", func(t *testing.T) {
		tb := newTestbed(t, fastCfg())
		tb.echo(11211, 600)
		tb.drive(40000, 11211, 3000, 100)
		tc := tb.mgr.TORCtl
		var seen []openflow.Message
		delay := tb.mgr.Cfg.ControlDelay
		tc.toSwitch, tc.fromSwitch = openflow.Pair(tb.c.Eng, delay, tc, sendTap{h: tb.mgr.agents[0], seen: &seen})
		for i, lc := range tb.mgr.Locals {
			lc.toTORs[0], tc.agents[i].tr = openflow.Pair(tb.c.Eng, delay, sendTap{h: lc, seen: &seen}, tc)
			lc.fromTORs[0] = tc.agents[i].tr
		}
		tb.mgr.Start()
		tb.c.Eng.RunUntil(3 * time.Second)
		tb.mgr.Stop()
		checkTermOne(t, "attach", seen)
		checkStaleRefused(t, "attach", tb.mgr)
	})
	t.Run("service", func(t *testing.T) {
		c := cluster.New(cluster.Config{Servers: 1, TCAMCapacity: 16, Seed: 1})
		s := NewTORService(c, fastCfg())
		tc := s.TC
		var seen []openflow.Message
		tc.toSwitch, tc.fromSwitch = openflow.Pair(c.Eng, s.M.Cfg.ControlDelay, tc, sendTap{h: s.M.agents[0], seen: &seen})
		s.AttachLocal(1, openflow.NewRemoteTransport(func(frame []byte) error {
			msg, _, _, err := openflow.Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			seen = append(seen, msg)
			return nil
		}))
		s.Start()
		for i := 0; i < 2; i++ {
			s.Pin(syncPattern(i))
		}
		c.Eng.RunUntil(time.Second)
		s.Unpin(syncPattern(0))
		c.Eng.RunUntil(3 * time.Second)
		s.Stop()
		checkTermOne(t, "service", seen)
		checkStaleRefused(t, "service", s.M)
	})
}
