package vswitch

import (
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
)

// fpVerdict is what the rules decide for a flow: what evaluate returns and
// a slow-path scan hands its waiters.
type fpVerdict struct {
	allow bool
	queue int
}

// flowCore is the vswitch's one classification pipeline (§2.2): an
// exact-match flow table in front of a megaflow wildcard cache in front of
// the compiled rule scan, with per-flow accrual. It decides what a flow key
// resolves to and nothing else. The two forwarders are harnesses around it:
// Switch adds the sim's timing (CPU cost, the upcall scheduler, shaping
// delays, packet-object egress) and invalidates by pattern; planeShard adds
// vectors, resolved egress actions and frame writing, and invalidates by
// flushing on every epoch. The core emits no telemetry: its results tell
// the caller what happened.
//
// A lookup is exact.lookup, then on a miss promote, then on a miss miss.
// Entry pointers are good until the next call that installs.
type flowCore struct {
	exact *flowTable
	mega  *megaflowCache
	// sk, when non-nil, receives every accrual (sketch accounting mode), so
	// sketch totals track the exact counters packet for packet.
	sk *sketch.ShardSketch
}

func newFlowCore() flowCore {
	return flowCore{exact: newFlowTable(), mega: newMegaflowCache(DefaultMegaflowLimit)}
}

// evaluate computes the verdict for a flow from the rules of its local
// endpoint VMs (nil: not attached here), source endpoint first, denying if
// any rule-bearing endpoint denies. An endpoint with no explicit rules
// allows (baseline OVS is a plain L2 switch).
//
// The returned FieldMask is the union of fields the decision consulted —
// the wildcard under which the verdict may be cached. Endpoints are found
// by tenant and exact address, so those are always pinned; each rule lookup
// contributes the masks of the tuple groups it visited.
func evaluate(k packet.FlowKey, src, dst *rules.CompiledVM) (fpVerdict, rules.FieldMask) {
	verdict := fpVerdict{allow: true}
	mask := rules.FieldMask{Tenant: true, SrcPrefix: 32, DstPrefix: 32}
	for _, c := range [2]*rules.CompiledVM{src, dst} {
		if c == nil || !c.HasRules() {
			continue
		}
		a, m := c.EvaluateMask(k)
		mask = mask.Union(m)
		if a != rules.Allow {
			return fpVerdict{}, mask
		}
		q, qm := c.QueueForMask(k)
		mask = mask.Union(qm)
		if q > verdict.queue {
			verdict.queue = q
		}
	}
	return verdict, mask
}

// promote serves an exact miss from the megaflow cache: a hit installs the
// flow's exact entry with the megaflow's action, so per-flow statistics
// keep accruing, and returns it.
func (c *flowCore) promote(k packet.FlowKey, h uint64) *flowEntry {
	m := c.mega.lookup(k)
	if m == nil {
		return nil
	}
	e := c.exact.insert(k, h)
	e.act = m.act
	return e
}

// miss serves a flow neither cache holds: it evaluates the endpoints' rules
// and installs the verdict, as an egressDeny or egressPlain action, in both
// caches. It returns the exact entry, the megaflow (where a forwarder writes
// back an action it refined, before the next miss) and the megaflow's mask.
//
// The key may already have a live entry: Switch evaluates when an upcall
// completes, and a megaflow hit may have installed the flow meanwhile. The
// entry is then replaced and its counters start again from zero, dropping
// what it accrued during the scan. That undercount is the seed's behaviour
// (a map install that replaced the entry) and the recorded results/ depend
// on it; TestUpcallInstallResetsCounters pins it.
func (c *flowCore) miss(k packet.FlowKey, h uint64, src, dst *rules.CompiledVM) (e, m *flowEntry, mask rules.FieldMask) {
	v, mask := evaluate(k, src, dst)
	act := flowAction{kind: egressDeny, bucket: noBucket, queue: int32(v.queue)}
	if v.allow {
		act.kind = egressPlain
	}
	m = c.mega.install(k, mask, act)
	if e = c.exact.lookup(k, h); e == nil {
		e = c.exact.insert(k, h)
	}
	e.pkts, e.bytes, e.act = 0, 0, act
	return e, m, mask
}

// accrue charges pkts wire packets of bytes in total to the flow's entry,
// and the identical increment to the sketch.
func (c *flowCore) accrue(e *flowEntry, pkts, bytes uint64) {
	e.pkts += pkts
	e.bytes += bytes
	if c.sk != nil {
		c.sk.Observe(e.key, pkts, bytes)
	}
}

// invalidate removes the exact entries p covers and the megaflows whose
// wildcard region overlaps it (the OVS revalidation rule that keeps the
// caches semantically transparent), returning how many of each.
func (c *flowCore) invalidate(p rules.Pattern) (exact, mega int) {
	c.exact.each(func(e *flowEntry) {
		if p.Match(e.key) {
			c.exact.remove(e)
			exact++
		}
	})
	return exact, c.mega.invalidate(p)
}

// flush empties both caches.
func (c *flowCore) flush() {
	c.exact.flush()
	c.mega.flush()
}
