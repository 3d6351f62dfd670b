// Package decision implements FasTrak's Decision Engine (§4.3.2): rank
// flows/aggregates by the score S = n × m_pps × c (frequency × median pps
// × tenant priority), select the most-frequently-used high-pps set that
// fits the ToR's hardware rule budget, demote offloaded flows that no
// longer qualify, and split each VM's purchased rate limit across its two
// interfaces with FPS.
package decision

import (
	"cmp"
	"math"
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
// move instead of the candidate itself. key is scoreKey of the effective
// score, computed once so the sort does not probe offloaded per comparison.
type rankKey struct {
	key uint64
	idx int
}

// scoreKey maps a score to an integer that ascends as the score descends
// and orders exactly as cmp.Compare(b, a) orders the scores: −0 and +0
// are one key, and NaN, below every number for cmp.Compare, is the last.
func scoreKey(f float64) uint64 {
	b := math.Float64bits(f)
	switch {
	case math.IsNaN(f):
		return math.MaxUint64
	case f < 0:
		return b // a negative number's bits grow with its magnitude
	}
	return ^b &^ (1 << 63) // and −0's come out as +0's
}

// Decide selects the hardware set. offloaded is the currently-offloaded
// pattern set. Candidates rank by effective score descending, then
// canonical pattern order (rules.Pattern.Compare), then input index: a
// total order for any input order. Without groups only eligible
// candidates are ranked, and only the Budget best are sorted, unless a
// repeated pattern makes the fill run past them (DESIGN.md).
func Decide(cfg Config, cands []Candidate, offloaded map[rules.Pattern]bool) Decision {
	if cfg.Budget < 0 {
		cfg.Budget = 0
	}
	if cfg.HysteresisRatio < 1 {
		cfg.HysteresisRatio = 1
	}
	grouped := len(cfg.Groups) > 0
	ranked := make([]rankKey, 0, len(cands))
	for i := range cands {
		if grouped || cands[i].eligible(cfg.MinScore) {
			ranked = append(ranked, rankKey{scoreKey(effectiveScore(cfg, cands[i], offloaded)), i})
		}
	}
	order := func(a, b rankKey) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		if c := cands[a.idx].Pattern.Compare(cands[b.idx].Pattern); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	}

	// No groups: every unit is a single candidate, the stable unit sort is
	// the identity on an already-ranked input, and a full unit never fits
	// once the budget is reached — so the fold below degenerates to a
	// greedy prefix fill. Do that directly; it is the common case and
	// allocates nothing per candidate.
	if !grouped {
		k := min(cfg.Budget, len(ranked))
		selectBest(ranked, k, order)
		slices.SortFunc(ranked[:k], order)
		var d Decision
		selected := make(map[rules.Pattern]bool, cfg.Budget)
		for i := 0; i < len(ranked) && len(d.Offload) < cfg.Budget; i++ {
			if i == k { // a repeat in the best k: rank the rest
				slices.SortFunc(ranked[k:], order)
			}
			c := &cands[ranked[i].idx]
			if !selected[c.Pattern] {
				selected[c.Pattern] = true
				d.Offload = append(d.Offload, c.Pattern)
			}
		}
		d.Demote = demoteList(offloaded, selected)
		return d
	}
	slices.SortFunc(ranked, order)

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
		u := &unit{eligible: true}
		if gi, inGroup := groupOf[c.Pattern]; !inGroup {
			units = append(units, u)
		} else if groupUnits[gi] == nil {
			groupUnits[gi] = u
			units = append(units, u)
		} else {
			u = groupUnits[gi]
		}
		u.patterns = append(u.patterns, c.Pattern)
		u.score += effectiveScore(cfg, *c, offloaded)
		// One ineligible member poisons the whole group: all or nothing.
		u.eligible = u.eligible && c.eligible(cfg.MinScore)
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
		if slices.ContainsFunc(u.patterns, func(p rules.Pattern) bool { return selected[p] }) {
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

// selectBest reorders r so that its k first elements are its k least in
// order, in no particular order among themselves: a quickselect on the
// middle element, deterministic for a given input.
func selectBest(r []rankKey, k int, order func(a, b rankKey) int) {
	for lo, hi := 0, len(r); lo < k && k < hi; {
		m, p := hi-1, lo
		r[lo+(hi-lo)/2], r[m] = r[m], r[lo+(hi-lo)/2]
		for i := lo; i < m; i++ {
			if order(r[i], r[m]) < 0 {
				r[i], r[p] = r[p], r[i]
				p++
			}
		}
		r[p], r[m] = r[m], r[p]
		if p < k {
			lo = p + 1
		} else {
			hi = p
		}
	}
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
// hardware statistics (from the TOR ME) into the DE's candidate list, one
// candidate per pattern, in no promised order: Smoother.Advance, which
// takes them next, keeps the canonical order. Flows active in hardware
// keep their measured rates even though the vswitch no longer sees them
// ("Flows active both in vswitch and hardware are scored in this
// fashion").
func CandidatesFromReports(reports []openflow.DemandReport, hwPPS map[rules.Pattern]float64, priorityOf func(packet.TenantID) float64) []Candidate {
	// Sized once for every entry: grown step by step, the map left twice
	// its final size in garbage on every tick.
	n := len(hwPPS)
	for _, rep := range reports {
		n += len(rep.Entries)
	}
	// The map holds an index, not the candidate: each is merged in place.
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
