// Package flowplacer implements the flow placement module FasTrak houses
// in each VM's (modified) bonding driver (§4.1.1, §5.2): the VIF and the
// SR-IOV VF are bonded into one interface, and the placer decides per
// packet which of the two paths a flow takes.
//
// Its design mirrors Open vSwitch's split: the control plane holds
// wildcard rules installed by the FasTrak rule manager over an OpenFlow
// interface; the data plane is an exact-match hash table giving O(1)
// per-packet lookups. A data-plane miss consults the control plane and
// installs an exact rule — and "because the control plane and the data
// plane of the flow placer exist in the same kernel context, the latency
// added to the first packet is minimal".
package flowplacer

import (
	"time"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

// wildcardRule is one control-plane entry.
type wildcardRule struct {
	pattern  rules.Pattern
	priority int
	out      openflow.Path
	cookie   uint64
}

// Placer is one VM's flow placement module. It is not safe for concurrent
// use; in the testbed it runs inside the single-threaded simulation, as
// the real one runs inside the VM kernel.
type Placer struct {
	// control plane: ordered wildcard rules; default (empty) → VIF
	// ("It is configured to place flows onto the VIF path by default").
	wildcards []wildcardRule
	// data plane: exact-match hash of active flows.
	exact *rules.ExactTable[openflow.Path]
}

// New returns a placer with an empty control plane (all flows → VIF).
func New() *Placer {
	return &Placer{exact: rules.NewExactTable[openflow.Path]()}
}

// Place returns the output path for the packet, updating the data plane
// and per-flow statistics. now is the virtual time for LastSeen.
func (pl *Placer) Place(p *packet.Packet, now time.Duration) openflow.Path {
	k := p.Key()
	if e := pl.exact.Lookup(k); e != nil {
		e.Stats.Hit(p.WireLen(), now)
		return e.Value
	}
	out := pl.classify(k)
	e := pl.exact.Install(k, out)
	e.Stats.Hit(p.WireLen(), now)
	return out
}

// classify runs the control-plane wildcard match: highest priority wins,
// specificity breaks ties, default is the VIF path.
func (pl *Placer) classify(k packet.FlowKey) openflow.Path {
	best, bestSpec := -1, -1
	out := openflow.PathVIF
	for i := range pl.wildcards {
		w := &pl.wildcards[i]
		if !w.pattern.Match(k) {
			continue
		}
		spec := w.pattern.Specificity()
		if w.priority > best || (w.priority == best && spec > bestSpec) {
			best, bestSpec, out = w.priority, spec, w.out
		}
	}
	return out
}

// HandleMessage implements openflow.Handler: FLOW_MOD programs the control
// plane, BARRIER_REQUEST fences.
func (pl *Placer) HandleMessage(msg openflow.Message, xid uint32, reply openflow.ReplyFunc) {
	switch m := msg.(type) {
	case *openflow.FlowMod:
		pl.applyFlowMod(m)
	case *openflow.BarrierRequest:
		reply(&openflow.BarrierReply{}, xid)
	case openflow.EchoRequest:
		reply(openflow.EchoReply{}, xid)
	case openflow.Hello:
		reply(openflow.Hello{}, xid)
	}
}

func (pl *Placer) applyFlowMod(m *openflow.FlowMod) {
	switch m.Command {
	case openflow.FlowAdd:
		// Replace any rule with the identical pattern, else append.
		replaced := false
		for i := range pl.wildcards {
			if pl.wildcards[i].pattern == m.Pattern {
				pl.wildcards[i].priority = int(m.Priority)
				pl.wildcards[i].out = m.Out
				pl.wildcards[i].cookie = m.Cookie
				replaced = true
				break
			}
		}
		if !replaced {
			pl.wildcards = append(pl.wildcards, wildcardRule{
				pattern: m.Pattern, priority: int(m.Priority), out: m.Out, cookie: m.Cookie,
			})
		}
	case openflow.FlowDelete:
		out := pl.wildcards[:0]
		for _, w := range pl.wildcards {
			if w.pattern != m.Pattern {
				out = append(out, w)
			}
		}
		pl.wildcards = out
	}
	// Invalidate exact entries the pattern covers so active flows
	// re-classify on their next packet — this is the mechanism that
	// migrates a live flow between paths (§4.1.2, §6.2).
	var stale []packet.FlowKey
	pl.exact.Entries(func(e *rules.ExactEntry[openflow.Path]) {
		if m.Pattern.Match(e.Key) {
			stale = append(stale, e.Key)
		}
	})
	for _, k := range stale {
		pl.exact.Remove(k)
	}
}

// RuleCount returns the number of control-plane wildcard rules.
func (pl *Placer) RuleCount() int { return len(pl.wildcards) }
