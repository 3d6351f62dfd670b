// Package decision implements FasTrak's Decision Engine (§4.3.2): rank
// flows/aggregates by the score S = n × m_pps × c (frequency × median pps
// × tenant priority), select the most-frequently-used high-pps set that
// fits the ToR's hardware rule budget, demote offloaded flows that no
// longer qualify, and split each VM's purchased rate limit across its two
// interfaces with FPS.
package decision

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/fps"
	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

// Candidate is one flow/aggregate the DE considers.
type Candidate struct {
	Pattern rules.Pattern
	// ActiveEpochs is n, MedianPPS is m_pps (§4.3.2).
	ActiveEpochs uint32
	MedianPPS    float64
	MedianBPS    float64
	// Priority is c, the tenant preference multiplier (default 1).
	Priority float64
}

// Score computes S = n × m_pps × c.
func (c Candidate) Score() float64 {
	p := c.Priority
	if p <= 0 {
		p = 1
	}
	return float64(c.ActiveEpochs) * c.MedianPPS * p
}

// Config parameterizes the DE.
type Config struct {
	// Budget is the number of hardware rule entries available for
	// offloaded flows (the TOR ME's free fast-path memory reading plus
	// entries currently held by offloaded flows, §4.3.1).
	Budget int
	// MinScore filters noise: candidates scoring below it are never
	// offloaded. Zero admits everything active.
	MinScore float64
	// HysteresisRatio keeps an already-offloaded flow in hardware
	// unless a challenger beats it by this factor, avoiding rule
	// thrashing between near-equal flows. 1.0 disables hysteresis.
	HysteresisRatio float64
	// Groups lists all-or-nothing pattern sets (§4.3.2: "Certain
	// all-to-all or partition-aggregate applications may require that
	// all corresponding flows be handled in hardware, or none at all").
	// A group is offloaded only when every member fits the budget
	// together; displacing any member demotes the whole group.
	Groups [][]rules.Pattern
}

// Decision is one control interval's outcome.
type Decision struct {
	// Offload lists patterns to move (or keep) in hardware.
	Offload []rules.Pattern
	// Demote lists currently offloaded patterns to move back to
	// software.
	Demote []rules.Pattern
}

// unit is one schedulable offload decision: a lone candidate or an
// all-or-nothing group.
type unit struct {
	patterns []rules.Pattern
	score    float64
	eligible bool
}

// eligible reports whether the candidate may be offloaded at all: active,
// with traffic, and scoring above the noise floor.
func (c Candidate) eligible(minScore float64) bool {
	return c.Score() > minScore && c.ActiveEpochs > 0 && c.MedianPPS > 0
}

// rankKey ranks candidate idx of Decide's input: 16 bytes for the sort to
// move instead of the candidate itself. eff is the effective score,
// computed once so the sort does not probe offloaded per comparison.
type rankKey struct {
	eff float64
	idx int
}

// Decide selects the hardware set. offloaded is the currently-offloaded
// pattern set. Candidates rank by effective score descending, canonical
// pattern order (rules.Pattern.Compare) within ties — which is input order
// when the input is strictly ascending in it (what CandidatesFromReports
// and Smoother.Advance return), so ties then break on the index.
func Decide(cfg Config, cands []Candidate, offloaded map[rules.Pattern]bool) Decision {
	if cfg.Budget < 0 {
		cfg.Budget = 0
	}
	if cfg.HysteresisRatio < 1 {
		cfg.HysteresisRatio = 1
	}
	ranked := make([]rankKey, len(cands))
	ascending := true
	for i := range cands {
		if i > 0 && ascending && cands[i-1].Pattern.Compare(cands[i].Pattern) >= 0 {
			ascending = false
		}
		ranked[i] = rankKey{effectiveScore(cfg, cands[i], offloaded), i}
	}
	slices.SortFunc(ranked, func(a, b rankKey) int {
		if c := cmp.Compare(b.eff, a.eff); c != 0 {
			return c
		}
		if ascending {
			return cmp.Compare(a.idx, b.idx)
		}
		return cands[a.idx].Pattern.Compare(cands[b.idx].Pattern)
	})

	// No groups: every unit is a single candidate, the stable unit sort is
	// the identity on an already-ranked input, and a full unit never fits
	// once the budget is reached — so the fold below degenerates to a
	// greedy prefix fill. Do that directly; it is the common case and
	// allocates nothing per candidate.
	if len(cfg.Groups) == 0 {
		var d Decision
		selected := make(map[rules.Pattern]bool, cfg.Budget)
		for _, k := range ranked {
			if len(d.Offload) >= cfg.Budget {
				break
			}
			c := &cands[k.idx]
			if !c.eligible(cfg.MinScore) || selected[c.Pattern] {
				continue
			}
			selected[c.Pattern] = true
			d.Offload = append(d.Offload, c.Pattern)
		}
		d.Demote = demoteList(offloaded, selected)
		return d
	}

	// Fold candidates into units: group members merge into one
	// all-or-nothing unit whose score is the sum of its members'.
	groupOf := make(map[rules.Pattern]int)
	for gi, g := range cfg.Groups {
		for _, p := range g {
			groupOf[p] = gi
		}
	}
	groupUnits := make(map[int]*unit)
	var units []*unit
	for _, k := range ranked {
		c := &cands[k.idx]
		ok := c.eligible(cfg.MinScore)
		if gi, grouped := groupOf[c.Pattern]; grouped {
			u, exists := groupUnits[gi]
			if !exists {
				u = &unit{eligible: true}
				groupUnits[gi] = u
				units = append(units, u)
			}
			u.patterns = append(u.patterns, c.Pattern)
			u.score += k.eff
			// One ineligible member poisons the whole group: all
			// or nothing.
			u.eligible = u.eligible && ok
			continue
		}
		units = append(units, &unit{
			patterns: []rules.Pattern{c.Pattern},
			score:    k.eff,
			eligible: ok,
		})
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].score > units[j].score })

	var d Decision
	selected := make(map[rules.Pattern]bool)
	for _, u := range units {
		if !u.eligible {
			continue
		}
		if len(d.Offload)+len(u.patterns) > cfg.Budget {
			continue // a whole group must fit together
		}
		dup := false
		for _, p := range u.patterns {
			if selected[p] {
				dup = true
			}
		}
		if dup {
			continue
		}
		for _, p := range u.patterns {
			selected[p] = true
			d.Offload = append(d.Offload, p)
		}
	}
	d.Demote = demoteList(offloaded, selected)
	return d
}

// demoteList is the demotion half shared by both selection paths:
// anything offloaded but not selected is demoted ("already offloaded
// flows that have lower scores are demoted back").
func demoteList(offloaded, selected map[rules.Pattern]bool) []rules.Pattern {
	var demote []rules.Pattern
	for p := range offloaded {
		if !selected[p] {
			demote = append(demote, p)
		}
	}
	slices.SortFunc(demote, rules.Pattern.Compare)
	return demote
}

// effectiveScore applies hysteresis: incumbents get their score scaled up
// so challengers must beat them by the configured ratio.
func effectiveScore(cfg Config, c Candidate, offloaded map[rules.Pattern]bool) float64 {
	s := c.Score()
	if offloaded[c.Pattern] {
		return s * cfg.HysteresisRatio
	}
	return s
}

// CandidatesFromReports merges demand reports (from local MEs) and
// hardware statistics (from the TOR ME) into the DE's candidate list.
// Flows active in hardware keep their measured rates even though the
// vswitch no longer sees them ("Flows active both in vswitch and hardware
// are scored in this fashion").
func CandidatesFromReports(reports []openflow.DemandReport, hwPPS map[rules.Pattern]float64, priorityOf func(packet.TenantID) float64) []Candidate {
	// Sized once for every entry: grown step by step, the map left twice
	// its final size in garbage on every tick.
	n := len(hwPPS)
	for _, rep := range reports {
		n += len(rep.Entries)
	}
	// The map holds an index, not the candidate: each is merged in place in
	// vals, which is then sorted once.
	index := make(map[rules.Pattern]int32, n)
	vals := make([]Candidate, 0, n)
	at := func(p rules.Pattern) *Candidate {
		i, ok := index[p]
		if !ok {
			i = int32(len(vals))
			index[p] = i
			vals = append(vals, Candidate{Pattern: p})
		}
		return &vals[i]
	}
	for _, rep := range reports {
		for _, e := range rep.Entries {
			c := at(e.Pattern)
			if e.ActiveEpochs > c.ActiveEpochs {
				c.ActiveEpochs = e.ActiveEpochs
			}
			if e.MedianPPS > c.MedianPPS {
				c.MedianPPS = e.MedianPPS
				c.MedianBPS = e.MedianBPS
			}
		}
	}
	for pat, pps := range hwPPS {
		c := at(pat)
		if pps > c.MedianPPS {
			c.MedianPPS = pps
		}
		if c.ActiveEpochs == 0 {
			c.ActiveEpochs = 1
		}
	}
	rules.SortPatterns(vals, func(c *Candidate) rules.Pattern { return c.Pattern })
	if priorityOf != nil {
		for i := range vals {
			vals[i].Priority = priorityOf(vals[i].Pattern.Tenant)
		}
	}
	return vals
}

// SplitLimits runs FPS for one VM direction pair, producing the installed
// limits Rs/Rh per direction (§4.3.2). splitters persist across intervals
// for smoothing; callers keep one per (VM, direction).
type Limiter struct {
	Egress  *fps.Splitter
	Ingress *fps.Splitter
}

// NewLimiter builds FPS state for a VM with the given purchased aggregate
// rates.
func NewLimiter(egressBps, ingressBps float64) *Limiter {
	return &Limiter{
		Egress:  fps.NewSplitter(egressBps),
		Ingress: fps.NewSplitter(ingressBps),
	}
}

// Adjust computes the four installed limits from per-path demand.
func (l *Limiter) Adjust(egSoft, egHard, inSoft, inHard fps.Demand) openflow.RateSplit {
	eg := l.Egress.Adjust(egSoft, egHard)
	in := l.Ingress.Adjust(inSoft, inHard)
	return openflow.RateSplit{
		EgressSoftBps:  eg.SoftwareWithOverflow,
		EgressHardBps:  eg.HardwareWithOverflow,
		IngressSoftBps: in.SoftwareWithOverflow,
		IngressHardBps: in.HardwareWithOverflow,
	}
}

// Incremental exists only so the frozen bench/ctl.go probe
// decision.rank_incremental_us keeps building; it forwards to Decide and
// goes when the benchmark issue retires that probe. Use nothing of it.
type Incremental struct{}

func NewIncremental(float64) *Incremental { return &Incremental{} }

func (*Incremental) Decide(cfg Config, cands []Candidate, offloaded map[rules.Pattern]bool) Decision {
	return Decide(cfg, cands, offloaded)
}
