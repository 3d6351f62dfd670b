// NIC-tier placement for the TOR controller: the middle rung of the
// software → SmartNIC → TCAM ladder. The controller tracks a desired
// per-server NIC rule set (nicDesired) against what each server's demand
// report says its SmartNIC actually holds, and repairs divergence the
// same way the TCAM path does — with one structural simplification: a
// SmartNIC miss always falls back to the host's vswitch, so NIC installs
// need no barrier/announce handshake and NIC removals need no ack gating.
// The worst a lost, swept or faulted NIC rule can cost is a spell on the
// software path.
package core

import (
	"slices"
	"sort"

	"repro/internal/decision"
	"repro/internal/openflow"
	"repro/internal/rules"
	"repro/internal/telemetry"
)

// nicInputs assembles the per-host placement inputs for DecideTiered from
// the agents' NIC report sections: each NIC-bearing server's budget
// (reported free entries plus entries its desired incumbents hold, the
// same convention as the TCAM budget) and its desired pattern set, plus
// the hostOf resolver mapping a pattern to the server that sources its
// traffic. Returns (nil, nil) when no agent has reported a SmartNIC — the
// tiered engine then degenerates to the 2-level one.
func (tc *TORController) nicInputs() (map[int]decision.NICState, func(rules.Pattern) (int, bool)) {
	if !slices.ContainsFunc(tc.agents, func(a agent) bool { return a.nicSeen }) {
		return nil, nil
	}
	desiredBy := make(map[uint32]map[rules.Pattern]bool)
	for p, s := range tc.nicDesired {
		m := desiredBy[s]
		if m == nil {
			m = make(map[rules.Pattern]bool)
			desiredBy[s] = m
		}
		m[p] = true
	}
	states := make(map[int]decision.NICState)
	for i := range tc.agents {
		a := &tc.agents[i]
		if !a.nicSeen {
			continue
		}
		placed := desiredBy[a.id]
		budget := int(a.nicFree)
		for p := range placed {
			if a.nicSet[p] {
				budget++ // the incumbent's entry frees if it is demoted
			}
		}
		states[int(a.id)] = decision.NICState{Budget: budget, Placed: placed}
	}

	// A SmartNIC rule only ever matches traffic its own host transmits, so
	// a pattern is NIC-placeable exactly when it pins the source VM (/32
	// src — exact flows and egress aggregates) and that VM's host carries
	// a SmartNIC. Wildcard-src patterns (ingress aggregates) have no
	// single sourcing host and stay on the software/TCAM rungs; both
	// flow endpoints report the same aggregate at the same rate, so a
	// report-rate vote cannot distinguish the transmitter anyway. The
	// controller tracks VM placement (it drives migration), so the
	// resolver follows a migrating VM to its new host automatically.
	hostOf := func(p rules.Pattern) (int, bool) {
		if p.AnyTenant || p.SrcPrefix != 32 {
			return 0, false
		}
		vm, ok := tc.mgr.Cluster.FindVM(p.Tenant, p.Src)
		if !ok {
			return 0, false
		}
		id := vm.Server().ID
		if a := tc.find(uint32(id)); a == nil || !a.nicSeen {
			return 0, false
		}
		return id, true
	}
	return states, hostOf
}

// applyNICTier turns the per-host NIC decisions into SmartNIC programming
// actions, each damped by the NIC tier's own flap damper. Ordering rules:
//
//   - a NIC→TCAM promotion holds the NIC rule until the TCAM install is
//     barrier-confirmed (see installConfirmed), so graduation never
//     detours through the software path;
//   - a TCAM→NIC demotion installs the NIC rule in the same tick the
//     TCAM removal is gated, so the flow lands on the NIC as soon as its
//     placer falls back;
//   - a host move (the dominant reporter changed) pulls the rule from the
//     old owner before installing on the new one.
func (tc *TORController) applyNICTier(td decision.TieredDecision, scores map[rules.Pattern]float64) {
	if len(td.NIC) == 0 {
		return
	}
	eng := tc.mgr.Cluster.Eng
	servers := make([]int, 0, len(td.NIC))
	for s := range td.NIC {
		servers = append(servers, s)
	}
	sort.Ints(servers)
	for _, s := range servers {
		id := uint32(s)
		cur := make(map[rules.Pattern]bool)
		for p, owner := range tc.nicDesired {
			if owner == id {
				cur[p] = true
			}
		}
		d := tc.nicDamper.Apply(td.NIC[s], cur, eng.Now())
		var acts []openflow.OffloadAction
		for _, p := range d.Demote {
			if owner, ok := tc.nicDesired[p]; !ok || owner != id {
				continue
			}
			if tc.inst.installing(p) {
				// NIC→TCAM promotion in flight: keep forwarding from the
				// NIC until the TCAM ACL is confirmed.
				continue
			}
			tc.nicRemove(p, id, "nic->software", scores[p])
			acts = append(acts, openflow.OffloadAction{Pattern: p, Offload: false, Tier: openflow.TierNIC})
		}
		for _, p := range d.Offload {
			if owner, ok := tc.nicDesired[p]; ok {
				if owner == id {
					continue // incumbent, already desired here
				}
				// The sourcing host moved: pull the stranded rule first.
				tc.nicRemove(p, owner, "nic->software", scores[p])
				tc.sendNICActions(owner, []openflow.OffloadAction{{Pattern: p, Offload: false, Tier: openflow.TierNIC}})
			}
			// The same compliance gate as the TCAM tier: a SmartNIC hit
			// bypasses the vswitch ACLs, so only Allow traffic may be
			// placed (§4.3's policy-compliance requirement).
			if _, allow := tc.policy(p); !allow {
				continue
			}
			cause := "software->nic"
			if f := tc.inst.flights[p]; f != nil && !f.installing() {
				cause = "tcam->nic" // demoted out of the TCAM this tick
			}
			tc.nicDesired[p] = id
			tc.NICPlacements++
			tc.rec.EmitPattern(telemetry.KindPlacementChange, p.Tenant, p, cause, scores[p], float64(s))
			acts = append(acts, openflow.OffloadAction{Pattern: p, Offload: true, Tier: openflow.TierNIC})
		}
		tc.sendNICActions(id, acts)
	}
}

// nicRemove retires p's NIC-tier placement on server s and emits the
// placement-change event; the caller sends (or batches) the removal
// action to the owning local.
func (tc *TORController) nicRemove(p rules.Pattern, s uint32, cause string, score float64) {
	delete(tc.nicDesired, p)
	tc.NICDemotes++
	tc.rec.EmitPattern(telemetry.KindPlacementChange, p.Tenant, p, cause, score, float64(s))
}

// sendNICActions delivers NIC-tier actions to one server's local
// controller. NIC rules are strictly per-host — broadcasting them the way
// TCAM actions are broadcast would program every SmartNIC in the rack.
func (tc *TORController) sendNICActions(server uint32, acts []openflow.OffloadAction) {
	if len(acts) == 0 {
		return
	}
	if a := tc.find(server); a != nil {
		a.tr.Send(&openflow.OffloadDecision{Actions: acts,
			Term: tc.el.term, Origin: uint32(tc.el.id)})
	}
}

// nicReconcile is the NIC tier's anti-entropy sweep, run on the same
// cadence as the TCAM TableRequest but against the report sections the
// locals already push (no extra control messages): desired rules missing
// from their owner's report are re-asserted (a reset or corruption fault
// wipes SmartNIC entries without telling anyone; installs are idempotent
// so a report that was merely in flight costs nothing), and reported
// rules nobody owns — crash remnants, moved patterns, lost removals —
// are swept.
func (tc *TORController) nicReconcile() {
	acts := make([][]openflow.OffloadAction, len(tc.agents))

	for _, p := range rules.SortedPatterns(tc.nicDesired) {
		s := tc.nicDesired[p]
		i, ok := tc.index(s)
		if !ok || !tc.agents[i].reported || tc.agents[i].nicSet[p] {
			continue // detached, no report yet, or confirmed present
		}
		tc.NICReasserts++
		tc.rec.EmitPattern(telemetry.KindRepair, p.Tenant, p, "missing-from-nic", 0, float64(s))
		acts[i] = append(acts[i], openflow.OffloadAction{Pattern: p, Offload: true, Tier: openflow.TierNIC})
	}

	for i := range tc.agents {
		a := &tc.agents[i]
		var orphans []rules.Pattern
		for p := range a.nicSet {
			if owner, ok := tc.nicDesired[p]; !ok || owner != a.id {
				orphans = append(orphans, p)
			}
		}
		slices.SortFunc(orphans, rules.Pattern.Compare)
		for _, p := range orphans {
			tc.NICOrphans++
			tc.rec.EmitPattern(telemetry.KindOrphanSweep, p.Tenant, p, "nic", 0, float64(a.id))
			acts[i] = append(acts[i], openflow.OffloadAction{Pattern: p, Offload: false, Tier: openflow.TierNIC})
		}
	}

	for i := range tc.agents {
		tc.sendNICActions(tc.agents[i].id, acts[i])
	}
}
