package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/sim"
)

// agent is one attached local controller as its rack's ToR controller
// knows it (§4.3.3). id and tr, the ServerID and the transport to it, are
// wiring and survive a crash; the rest is what its reports said, which a
// crash forgets.
type agent struct {
	id uint32
	tr *openflow.Transport
	// report is the latest report as the tick reads it, once reported:
	// ServerID, Interval and the entries, copied into a slice the record
	// owns and reuses from one interval to the next.
	reported bool
	report   openflow.DemandReport
	// lastInterval and lastReportAt track the report stream for gap and
	// staleness detection: skipped interval sequence numbers are counted
	// in StatsGaps, and an agent silent for staleIntervals control
	// intervals has its report excluded from decisions.
	lastInterval uint32
	lastReportAt sim.Time
	// nicSet and nicFree are the latest report's NIC section: what the
	// agent's SmartNIC holds and its free entries. nicSeen marks an agent
	// that ever reported a SmartNIC.
	nicSet  map[rules.Pattern]bool
	nicFree uint32
	nicSeen bool
}

// hear takes one chunk of the agent's demand report and returns how many
// interval sequence numbers went missing before it. Nothing of m is kept
// (openflow.Handler): its entries are copied into the record's own slice.
func (a *agent) hear(m *openflow.DemandReport, now sim.Time) (skipped uint32) {
	if a.reported && a.report.Interval == m.Interval {
		// A continuation chunk of this interval's report.
		a.report.Entries = append(a.report.Entries, m.Entries...)
	} else {
		// Intervals count from 1. Numbers that never arrived mean lost (or
		// badly delayed) reports on this agent's stats path; the smoother
		// handles the estimation side.
		if last := a.lastInterval; last > 0 && m.Interval > last+1 {
			skipped = m.Interval - last - 1
		}
		a.report = openflow.DemandReport{ServerID: m.ServerID, Interval: m.Interval,
			Entries: append(a.report.Entries[:0], m.Entries...)}
		// The NIC section rides the first chunk only; a server without a
		// SmartNIC reports zero free entries and no patterns.
		if a.nicSet == nil {
			a.nicSet = make(map[rules.Pattern]bool, len(m.NICPatterns))
		}
		clear(a.nicSet)
		for _, p := range m.NICPatterns {
			a.nicSet[p] = true
		}
		a.nicFree = m.NICFree
		a.nicSeen = a.nicSeen || m.NICFree > 0 || len(m.NICPatterns) > 0
	}
	a.reported = true
	a.lastInterval = max(a.lastInterval, m.Interval)
	a.lastReportAt = now
	return skipped
}

// index returns where the agent attached as id is, or would be, in agents.
func (tc *TORController) index(id uint32) (int, bool) {
	return slices.BinarySearchFunc(tc.agents, id, func(a agent, id uint32) int { return cmp.Compare(a.id, id) })
}

// find returns the record of the agent attached as id, or nil.
func (tc *TORController) find(id uint32) *agent {
	if i, ok := tc.index(id); ok {
		return &tc.agents[i]
	}
	return nil
}

// LatestReports returns the most recent demand report from each agent —
// its ServerID, Interval and entries — in ServerID order, exposed for
// experiment instrumentation. A report is valid until the next report
// from its agent, whose entries overwrite it.
func (tc *TORController) LatestReports() []openflow.DemandReport {
	return tc.reportsSince(math.MinInt64)
}

// reportsSince returns the latest report of every agent heard from at or
// after t, in ServerID order.
func (tc *TORController) reportsSince(t sim.Time) []openflow.DemandReport {
	out := make([]openflow.DemandReport, 0, len(tc.agents))
	for i := range tc.agents {
		if a := &tc.agents[i]; a.reported && a.lastReportAt >= t {
			out = append(out, a.report)
		}
	}
	return out
}

// broadcast sends msg to every agent of to, in order, marshalled once.
func broadcast(to []agent, msg openflow.Message) {
	openflow.Broadcast(len(to), func(i int) *openflow.Transport { return to[i].tr }, msg)
}
