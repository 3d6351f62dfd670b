// tiered.go generalizes the 2-level Decision Engine (software/TCAM) to an
// N-level placement ladder: flows graduate vswitch → SmartNIC → TCAM by
// score and demote under capacity pressure. The ToR TCAM remains the top
// tier and is decided first, by the *unchanged* 2-level Decide — with NIC
// capacity 0 the tiered engine is therefore byte-identical to the 2-level
// engine (the seed-equivalence guard in tiered_test.go pins this). The
// SmartNIC tier then runs one per-host Decide over the candidates the
// TCAM did not take, against that host's NIC budget, incumbents and
// per-tenant quota.
package decision

import (
	"slices"
	"sort"

	"repro/internal/packet"
	"repro/internal/rules"
)

// Tier identifies one rung of the placement ladder, ordered bottom-up.
type Tier uint8

// Placement tiers.
const (
	// TierSoftware: the vswitch forwards the flow (the universal
	// fallback; never needs installing).
	TierSoftware Tier = iota
	// TierNIC: a per-host SmartNIC rule forwards the flow's egress.
	TierNIC
	// TierTCAM: the ToR TCAM carries the flow (FasTrak's express lane).
	TierTCAM
)

func (t Tier) String() string {
	switch t {
	case TierNIC:
		return "nic"
	case TierTCAM:
		return "tcam"
	default:
		return "software"
	}
}

// NICState is one host's SmartNIC as placement input.
type NICState struct {
	// Budget is the rule entries available to placement: free entries
	// plus entries currently held by placed patterns (same convention as
	// the TCAM budget).
	Budget int
	// Placed is the pattern set currently on this NIC (the tier's
	// incumbents for hysteresis).
	Placed map[rules.Pattern]bool
}

// TieredConfig parameterizes the N-level engine.
type TieredConfig struct {
	// TCAM is the top tier's config, passed verbatim to the 2-level
	// Decide. Its HysteresisRatio guards the NIC tier too: a NIC
	// incumbent keeps its slot unless a challenger beats it by that
	// factor.
	TCAM Config
	// NICMinScore filters NIC-tier noise; a flow not worth a NIC rule
	// stays in software. Zero admits everything active.
	NICMinScore float64
	// NICTenantQuota caps NIC rules per tenant per host (<=0: no quota).
	// The quota keeps the highest-scoring rules per tenant; surplus
	// incumbents are demoted.
	NICTenantQuota int
}

// TieredDecision is one control interval's N-level outcome.
type TieredDecision struct {
	// TCAM is the top tier's decision, byte-identical to 2-level Decide.
	TCAM Decision
	// NIC maps server ID to that host's NIC-tier decision: Offload is
	// the full desired rule set (keep + new), Demote the removals.
	NIC map[int]Decision
}

// DecideTiered runs the ladder. offloaded is the current TCAM set; nics
// holds each host's NIC state; hostOf resolves the host that sources a
// pattern's traffic (a pattern with no resolvable host is not
// NIC-placeable — NIC rules only help on the host that transmits the
// flow). All-or-nothing groups apply to the TCAM tier only.
func DecideTiered(cfg TieredConfig, cands []Candidate, offloaded map[rules.Pattern]bool,
	nics map[int]NICState, hostOf func(rules.Pattern) (int, bool)) TieredDecision {

	td := TieredDecision{TCAM: Decide(cfg.TCAM, cands, offloaded)}
	if len(nics) == 0 {
		return td
	}
	td.NIC = make(map[int]Decision, len(nics))

	inTCAM := make(map[rules.Pattern]bool, len(td.TCAM.Offload))
	for _, p := range td.TCAM.Offload {
		inTCAM[p] = true
	}

	// Partition the remaining candidates by sourcing host.
	perHost := make(map[int][]Candidate)
	for _, c := range cands {
		if inTCAM[c.Pattern] {
			continue
		}
		if h, ok := hostOf(c.Pattern); ok {
			perHost[h] = append(perHost[h], c)
		}
	}

	servers := make([]int, 0, len(nics))
	for s := range nics {
		servers = append(servers, s)
	}
	sort.Ints(servers)
	for _, s := range servers {
		st := nics[s]
		d := Decide(Config{
			Budget:          st.Budget,
			MinScore:        cfg.NICMinScore,
			HysteresisRatio: cfg.TCAM.HysteresisRatio,
		}, perHost[s], st.Placed)
		td.NIC[s] = applyQuota(d, cfg.NICTenantQuota, st.Placed)
	}
	return td
}

// applyQuota enforces the per-tenant NIC rule quota on a host decision.
// Offload is in rank order, so the quota keeps each tenant's best rules;
// placed patterns squeezed out join the demote list.
func applyQuota(d Decision, quota int, placed map[rules.Pattern]bool) Decision {
	if quota <= 0 {
		return d
	}
	counts := make(map[packet.TenantID]int)
	keep := d.Offload[:0]
	var squeezed []rules.Pattern
	for _, p := range d.Offload {
		if !p.AnyTenant && counts[p.Tenant] >= quota {
			squeezed = append(squeezed, p)
			continue
		}
		if !p.AnyTenant {
			counts[p.Tenant]++
		}
		keep = append(keep, p)
	}
	d.Offload = keep
	for _, p := range squeezed {
		if placed[p] {
			d.Demote = append(d.Demote, p)
		}
	}
	slices.SortFunc(d.Demote, rules.Pattern.Compare)
	return d
}
