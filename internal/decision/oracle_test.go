package decision

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

// oracleDecide is the seed's Decide kept as the reference: a full sort
// whose comparator recomputes the effective score and compares rendered
// pattern strings, followed by the general unit fold only (no groupless
// shortcut), so it also checks Decide's greedy path against the fold.
func oracleDecide(cfg Config, cands []Candidate, offloaded map[rules.Pattern]bool) Decision {
	if cfg.Budget < 0 {
		cfg.Budget = 0
	}
	if cfg.HysteresisRatio < 1 {
		cfg.HysteresisRatio = 1
	}
	ranked := append([]Candidate(nil), cands...)
	sort.Slice(ranked, func(i, j int) bool {
		si, sj := effectiveScore(cfg, ranked[i], offloaded), effectiveScore(cfg, ranked[j], offloaded)
		if si != sj {
			return si > sj
		}
		return ranked[i].Pattern.String() < ranked[j].Pattern.String()
	})
	groupOf := make(map[rules.Pattern]int)
	for gi, g := range cfg.Groups {
		for _, p := range g {
			groupOf[p] = gi
		}
	}
	groupUnits := make(map[int]*unit)
	var units []*unit
	for _, c := range ranked {
		ok := c.Score() > cfg.MinScore && c.ActiveEpochs > 0 && c.MedianPPS > 0
		u := &unit{eligible: true}
		if gi, grouped := groupOf[c.Pattern]; !grouped {
			units = append(units, u)
		} else if groupUnits[gi] == nil {
			groupUnits[gi] = u
			units = append(units, u)
		} else {
			u = groupUnits[gi]
		}
		u.patterns = append(u.patterns, c.Pattern)
		u.score += effectiveScore(cfg, c, offloaded)
		u.eligible = u.eligible && ok
	}
	sort.SliceStable(units, func(i, j int) bool { return units[i].score > units[j].score })

	var d Decision
	selected := make(map[rules.Pattern]bool)
	for _, u := range units {
		if !u.eligible || len(d.Offload)+len(u.patterns) > cfg.Budget {
			continue
		}
		dup := false
		for _, p := range u.patterns {
			dup = dup || selected[p]
		}
		if dup {
			continue
		}
		for _, p := range u.patterns {
			selected[p] = true
			d.Offload = append(d.Offload, p)
		}
	}
	for p := range offloaded {
		if !selected[p] {
			d.Demote = append(d.Demote, p)
		}
	}
	sortByString(d.Demote)
	return d
}

func sortByString(ps []rules.Pattern) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].String() < ps[j].String() })
}

// oracleDecideTiered is the seed's DecideTiered over oracleDecide.
func oracleDecideTiered(cfg TieredConfig, cands []Candidate, offloaded map[rules.Pattern]bool,
	nics map[int]NICState, hostOf func(rules.Pattern) (int, bool)) TieredDecision {

	td := TieredDecision{TCAM: oracleDecide(cfg.TCAM, cands, offloaded)}
	if len(nics) == 0 {
		return td
	}
	td.NIC = make(map[int]Decision, len(nics))
	inTCAM := make(map[rules.Pattern]bool)
	for _, p := range td.TCAM.Offload {
		inTCAM[p] = true
	}
	for s, st := range nics {
		var mine []Candidate
		for _, c := range cands {
			if h, ok := hostOf(c.Pattern); ok && h == s && !inTCAM[c.Pattern] {
				mine = append(mine, c)
			}
		}
		d := applyQuota(oracleDecide(Config{
			Budget:          st.Budget,
			MinScore:        cfg.NICMinScore,
			HysteresisRatio: cfg.TCAM.HysteresisRatio,
		}, mine, st.Placed), cfg.NICTenantQuota, st.Placed)
		sortByString(d.Demote)
		td.NIC[s] = d
	}
	return td
}

// churnStep mutates a candidate population the way demand cycles do:
// smoothed scores drift, flows appear and vanish, epochs advance.
func churnStep(rng *rand.Rand, cands []Candidate, pool []Candidate) []Candidate {
	out := cands[:0]
	for _, c := range cands {
		switch rng.Intn(10) {
		case 0: // flow went idle and was dropped
			continue
		case 1, 2, 3: // smoothed score moved
			c.MedianPPS *= 0.5 + rng.Float64()
			if c.ActiveEpochs < 1<<20 {
				c.ActiveEpochs++
			}
		}
		out = append(out, c)
	}
	// A few new arrivals from the pool.
	for i := 0; i < rng.Intn(4); i++ {
		c := pool[rng.Intn(len(pool))]
		dup := false
		for _, e := range out {
			if e.Pattern == c.Pattern {
				dup = true
				break
			}
		}
		if !dup {
			c.MedianPPS = 1 + rng.Float64()*5000
			out = append(out, c)
		}
	}
	return out
}

// applyDecision plays a Decision back onto the offloaded set, like the
// rule manager does between cycles.
func applyDecision(offloaded map[rules.Pattern]bool, d Decision) {
	for _, p := range d.Demote {
		delete(offloaded, p)
	}
	for _, p := range d.Offload {
		offloaded[p] = true
	}
}

// TestDecideMatchesOracleUnderChurn is the core equivalence property:
// across many seeds and many cycles of score drift, arrivals, departures,
// budget changes and hysteresis, Decide (one effective score per
// candidate, Pattern.Compare tie-breaks) returns exactly what the seed's
// string-comparator full sort returns, while both engines' decisions feed
// back into their own offloaded sets.
func TestDecideMatchesOracleUnderChurn(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		pool, _ := benchCandidates(96)
		cands := append([]Candidate(nil), pool[:48]...)
		offOracle := map[rules.Pattern]bool{}
		off := map[rules.Pattern]bool{}
		for cycle := 0; cycle < 60; cycle++ {
			cfg := Config{
				Budget:          8 + rng.Intn(24),
				MinScore:        float64(rng.Intn(3)) * 50,
				HysteresisRatio: 1 + rng.Float64(),
			}
			want := oracleDecide(cfg, cands, offOracle)
			got := Decide(cfg, cands, off)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d cycle %d: Decide diverged\noracle: %+v\ngot:    %+v", seed, cycle, want, got)
			}
			applyDecision(offOracle, want)
			applyDecision(off, got)
			cands = churnStep(rng, cands, pool)
		}
	}
}

// TestDecideMatchesOracleWithGroups covers the all-or-nothing group fold.
func TestDecideMatchesOracleWithGroups(t *testing.T) {
	for seed := 0; seed < 10; seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		pool, _ := benchCandidates(64)
		cands := append([]Candidate(nil), pool[:40]...)
		groups := [][]rules.Pattern{
			{pool[0].Pattern, pool[1].Pattern, pool[2].Pattern},
			{pool[10].Pattern, pool[11].Pattern},
		}
		offOracle := map[rules.Pattern]bool{}
		off := map[rules.Pattern]bool{}
		for cycle := 0; cycle < 40; cycle++ {
			cfg := Config{Budget: 6 + rng.Intn(10), HysteresisRatio: 1.2, Groups: groups}
			want := oracleDecide(cfg, cands, offOracle)
			got := Decide(cfg, cands, off)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d cycle %d (groups): Decide diverged\noracle: %+v\ngot:    %+v", seed, cycle, want, got)
			}
			applyDecision(offOracle, want)
			applyDecision(off, got)
			cands = churnStep(rng, cands, pool)
		}
	}
}

// TestDecideTieredMatchesOracle extends the equivalence to the N-level
// ladder: TCAM + per-host NIC decisions with quotas, under NIC budget
// churn and placement feedback.
func TestDecideTieredMatchesOracle(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	hostOf := func(p rules.Pattern) (int, bool) {
		if p.SrcPort == 0 {
			return 0, false
		}
		return int(p.SrcPort) % 4, true
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(200 + seed)))
		pool, _ := benchCandidates(96)
		cands := append([]Candidate(nil), pool[:64]...)
		offOracle := map[rules.Pattern]bool{}
		off := map[rules.Pattern]bool{}
		nicsOracle := map[int]NICState{}
		nics := map[int]NICState{}
		for h := 0; h < 4; h++ {
			nicsOracle[h] = NICState{Budget: 8, Placed: map[rules.Pattern]bool{}}
			nics[h] = NICState{Budget: 8, Placed: map[rules.Pattern]bool{}}
		}
		for cycle := 0; cycle < 40; cycle++ {
			cfg := TieredConfig{
				TCAM:           Config{Budget: 8 + rng.Intn(8), HysteresisRatio: 1.2},
				NICMinScore:    10,
				NICTenantQuota: 3,
			}
			want := oracleDecideTiered(cfg, cands, offOracle, nicsOracle, hostOf)
			got := DecideTiered(cfg, cands, off, nics, hostOf)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d cycle %d: DecideTiered diverged\noracle: %+v\ngot:    %+v", seed, cycle, want, got)
			}
			applyDecision(offOracle, want.TCAM)
			applyDecision(off, got.TCAM)
			for h, d := range want.NIC {
				applyDecision(nicsOracle[h].Placed, d)
			}
			for h, d := range got.NIC {
				applyDecision(nics[h].Placed, d)
			}
			cands = churnStep(rng, cands, pool)
		}
	}
}

// oracleSmoother is Smoother as it was before it kept its order across
// calls: a per-call seen set, then the whole state map collected and
// sorted (here by rendered text) on every call.
type oracleSmoother struct {
	cfg         SmootherConfig
	state       map[rules.Pattern]*smoothState
	synthesized uint64
	// What the differential has exercised.
	staleDrops, offloadedDrops int
}

func (s *oracleSmoother) Advance(cands []Candidate, offloaded map[rules.Pattern]bool) []Candidate {
	seen := make(map[rules.Pattern]bool, len(cands))
	for _, c := range cands {
		seen[c.Pattern] = true
		st, ok := s.state[c.Pattern]
		if !ok {
			s.state[c.Pattern] = &smoothState{cand: c}
			continue
		}
		a := s.cfg.Alpha
		st.cand.MedianPPS = a*c.MedianPPS + (1-a)*st.cand.MedianPPS
		st.cand.MedianBPS = a*c.MedianBPS + (1-a)*st.cand.MedianBPS
		st.cand.ActiveEpochs = c.ActiveEpochs
		st.cand.Priority = c.Priority
		st.stale = 0
	}
	var pats []rules.Pattern
	for p, st := range s.state {
		if !seen[p] {
			if offloaded[p] {
				s.offloadedDrops++
				delete(s.state, p)
				continue
			}
			st.stale++
			if st.stale > s.cfg.MaxStaleIntervals {
				s.staleDrops++
				delete(s.state, p)
				continue
			}
			st.cand.MedianPPS *= s.cfg.StaleDecay
			st.cand.MedianBPS *= s.cfg.StaleDecay
			s.synthesized++
		}
		pats = append(pats, p)
	}
	sortByString(pats)
	out := make([]Candidate, 0, len(pats))
	for _, p := range pats {
		out = append(out, s.state[p].cand)
	}
	return out
}

// TestSmootherMatchesOracleUnderChurn holds Advance's kept order to the
// collect-and-sort oracle, output and state, while flows drift, vanish for
// a while, vanish for good, return, and move in and out of hardware. Each
// seed runs three times: on input in canonical order, on the same input
// shuffled (what the controller passes: CandidatesFromReports promises no
// order) and shuffled with repeats. After every call the Smoother's order
// must be strictly ascending and hold exactly its map's states.
func TestSmootherMatchesOracleUnderChurn(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	var synthesized uint64
	var staleDrops, offloadedDrops int
	for seed := 0; seed < seeds; seed++ {
		for _, form := range []string{"sorted", "shuffled", "repeated"} {
			rng := rand.New(rand.NewSource(int64(300 + seed)))
			pool, _ := benchCandidates(96)
			cands := append([]Candidate(nil), pool[:48]...)
			cfg := SmootherConfig{Alpha: 0.25 + rng.Float64()/2, MaxStaleIntervals: 1 + rng.Intn(4)}
			got := NewSmoother(cfg)
			want := &oracleSmoother{cfg: cfg.normalized(), state: map[rules.Pattern]*smoothState{}}
			for cycle := 0; cycle < 60; cycle++ {
				offloaded := map[rules.Pattern]bool{}
				for _, c := range pool {
					if rng.Intn(5) == 0 {
						offloaded[c.Pattern] = true
					}
				}
				in := append([]Candidate(nil), cands...)
				slices.SortFunc(in, func(a, b Candidate) int { return a.Pattern.Compare(b.Pattern) })
				if form == "repeated" {
					for i := rng.Intn(4); i > 0 && len(in) > 0; i-- {
						again := in[rng.Intn(len(in))]
						again.MedianPPS *= 2 // the repeat blends in a second reading
						in = append(in, again)
					}
				}
				if form != "sorted" {
					rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
				}
				wantOut, gotOut := want.Advance(in, offloaded), got.Advance(in, offloaded)
				if !reflect.DeepEqual(wantOut, gotOut) {
					t.Fatalf("seed %d %s cycle %d: Advance diverged\noracle: %+v\ngot:    %+v",
						seed, form, cycle, wantOut, gotOut)
				}
				for i := 1; i < len(gotOut); i++ {
					if gotOut[i-1].Pattern.String() >= gotOut[i].Pattern.String() {
						t.Fatalf("seed %d %s cycle %d: output not sorted and unique at %d: %v then %v",
							seed, form, cycle, i, gotOut[i-1].Pattern, gotOut[i].Pattern)
					}
				}
				if len(got.order) != len(got.state) {
					t.Fatalf("seed %d %s cycle %d: order holds %d states, map %d", seed, form, cycle, len(got.order), len(got.state))
				}
				for i, st := range got.order {
					if got.state[st.cand.Pattern] != st || i > 0 && got.order[i-1].cand.Pattern.Compare(st.cand.Pattern) >= 0 {
						t.Fatalf("seed %d %s cycle %d: order at %d (%v) is not the map's state in ascending order",
							seed, form, cycle, i, st.cand.Pattern)
					}
				}
				if len(got.state) != len(want.state) || got.Synthesized != want.synthesized {
					t.Fatalf("seed %d %s cycle %d: %d states, %d synthesized; oracle %d, %d",
						seed, form, cycle, len(got.state), got.Synthesized, len(want.state), want.synthesized)
				}
				for p, w := range want.state {
					if g := got.state[p]; g == nil || g.cand != w.cand || g.stale != w.stale {
						t.Fatalf("seed %d %s cycle %d: state of %v is %+v, oracle %+v",
							seed, form, cycle, p, g, w)
					}
				}
				cands = churnStep(rng, cands, pool)
			}
			synthesized += want.synthesized
			staleDrops += want.staleDrops
			offloadedDrops += want.offloadedDrops
		}
	}
	if synthesized == 0 || staleDrops == 0 || offloadedDrops == 0 {
		t.Fatalf("churn exercised %d synthesized, %d stale-dropped, %d offloaded-absent-dropped patterns; want all three",
			synthesized, staleDrops, offloadedDrops)
	}
}

// TestDecisionPassAllocs gates one control interval's decision pass over
// 1,536 distinct reported patterns (CandidatesFromReports →
// Smoother.Advance → Decide → FlapDamper.Apply) in steady state: 33
// allocations, gated with 10 % room. The string comparators this order
// replaced cost 521 k allocations here.
func TestDecisionPassAllocs(t *testing.T) {
	const n, budget = 1536, 640
	pass, current := decisionPass(n, budget)
	applyDecision(current, pass()) // fill smoother and damper state, load the table
	if len(current) != budget {
		t.Fatalf("warm-up offloaded %d patterns, want a full table of %d", len(current), budget)
	}
	if got := testing.AllocsPerRun(10, func() { pass() }); got > 36 {
		t.Fatalf("decision pass over %d patterns allocates %v times, gate is 36", n, got)
	}
}

// TestDecideBreaksTiesAlikeSortedAndShuffled: Decide breaks score ties on
// Pattern.Compare, then the input index; with every score tied in
// clusters, it must give what the oracle gives — sorted input, shuffled
// input, and input with a repeated pattern.
func TestDecideBreaksTiesAlikeSortedAndShuffled(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(300 + seed)))
		sorted, offloaded := benchCandidates(96)
		for i := range sorted {
			sorted[i].ActiveEpochs, sorted[i].MedianPPS = 1, float64(1+rng.Intn(4))*100
		}
		slices.SortFunc(sorted, func(a, b Candidate) int { return a.Pattern.Compare(b.Pattern) })
		shuffled := append([]Candidate(nil), sorted...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		repeated := append(append([]Candidate(nil), sorted...), sorted[rng.Intn(len(sorted))])
		slices.SortFunc(repeated, func(a, b Candidate) int { return a.Pattern.Compare(b.Pattern) })
		cfg := Config{Budget: 10 + rng.Intn(40), HysteresisRatio: 1 + float64(rng.Intn(2))}
		want := oracleDecide(cfg, sorted, offloaded)
		for name, in := range map[string][]Candidate{"sorted": sorted, "shuffled": shuffled, "repeated": repeated} {
			if got := Decide(cfg, in, offloaded); !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d, %s input: Decide diverged\noracle: %+v\ngot:    %+v", seed, name, want, got)
			}
		}
	}
}

// oracleCandidates is CandidatesFromReports as it was before it sorted a
// permutation: merge into a map of candidates, collect, sort the values.
func oracleCandidates(reports []openflow.DemandReport, hwPPS map[rules.Pattern]float64, priorityOf func(packet.TenantID) float64) []Candidate {
	merged := make(map[rules.Pattern]Candidate)
	for _, rep := range reports {
		for _, e := range rep.Entries {
			c := merged[e.Pattern]
			c.Pattern = e.Pattern
			if e.ActiveEpochs > c.ActiveEpochs {
				c.ActiveEpochs = e.ActiveEpochs
			}
			if e.MedianPPS > c.MedianPPS {
				c.MedianPPS = e.MedianPPS
				c.MedianBPS = e.MedianBPS
			}
			merged[e.Pattern] = c
		}
	}
	for pat, pps := range hwPPS {
		c, ok := merged[pat]
		if !ok {
			c.Pattern = pat
		}
		if pps > c.MedianPPS {
			c.MedianPPS = pps
		}
		if c.ActiveEpochs == 0 {
			c.ActiveEpochs = 1
		}
		merged[pat] = c
	}
	out := make([]Candidate, 0, len(merged))
	for _, c := range merged {
		if priorityOf != nil {
			c.Priority = priorityOf(c.Pattern.Tenant)
		}
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b Candidate) int { return a.Pattern.Compare(b.Pattern) })
	return out
}

// TestCandidatesFromReportsMatchesOracle: patterns reported by several
// servers, in hardware only, in both, and by nobody's order.
func TestCandidatesFromReportsMatchesOracle(t *testing.T) {
	prio := func(t packet.TenantID) float64 { return float64(1 + t%3) }
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(500 + seed)))
		pool, _ := benchCandidates(200)
		reports := make([]openflow.DemandReport, 1+rng.Intn(6))
		for i := range reports {
			for n := rng.Intn(120); n > 0; n-- {
				c := pool[rng.Intn(len(pool))]
				reports[i].Entries = append(reports[i].Entries, openflow.DemandEntry{
					Pattern: c.Pattern, ActiveEpochs: uint32(rng.Intn(9)),
					MedianPPS: float64(rng.Intn(5000)), MedianBPS: float64(rng.Intn(1 << 20)),
				})
			}
		}
		hw := map[rules.Pattern]float64{}
		for n := rng.Intn(60); n > 0; n-- {
			hw[pool[rng.Intn(len(pool))].Pattern] = float64(rng.Intn(5000))
		}
		for _, f := range []func(packet.TenantID) float64{nil, prio} {
			want, got := oracleCandidates(reports, hw, f), CandidatesFromReports(reports, hw, f)
			// The values are the contract; the order is Smoother.Advance's.
			slices.SortFunc(got, func(a, b Candidate) int { return a.Pattern.Compare(b.Pattern) })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d: CandidatesFromReports diverged from the map-and-sort oracle", seed)
			}
		}
	}
	if got := CandidatesFromReports(nil, nil, nil); got == nil || len(got) != 0 {
		t.Fatalf("no input: got %#v, want an empty non-nil slice", got)
	}
}

// TestDecideSelectionMatchesOracle holds Decide's select-then-sort fill to
// the oracle's full sort at the budgets where a selection can go wrong —
// 0, 1, just under, at and above the eligible count — with ineligible
// candidates (no epochs, no traffic, under MinScore, NaN score) mixed in,
// and a pattern repeated at the top so the fill must run past the best
// Budget and rank the rest. Both input orders. A NaN score is never
// eligible, and the oracle's float comparator cannot place one, so the
// oracle decides without the NaN candidates.
func TestDecideSelectionMatchesOracle(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		rng := rand.New(rand.NewSource(int64(700 + seed)))
		pool, offloaded := benchCandidates(120)
		cfg := Config{MinScore: 40, HysteresisRatio: 1 + float64(rng.Intn(3))/4}
		var cands, finite []Candidate
		for i, c := range pool[:96] {
			c.MedianPPS = float64(1 + rng.Intn(400)) // ties among these
			switch i % 8 {
			case 1:
				c.ActiveEpochs = 0
			case 3:
				c.MedianPPS = 0
			case 5:
				c.MedianPPS = 10 // Score under MinScore
			case 7:
				c.MedianPPS = math.NaN()
			}
			cands = append(cands, c)
		}
		for _, c := range cands {
			if !math.IsNaN(c.MedianPPS) {
				finite = append(finite, c)
			}
		}
		eligible := 0
		for _, c := range cands {
			if c.eligible(cfg.MinScore) {
				eligible++
			}
		}
		for _, budget := range []int{0, 1, eligible - 1, eligible, eligible + 1, 2 * eligible} {
			cfg.Budget = budget
			// Repeat the candidate the oracle ranks last within the budget at
			// the top score, so both copies fall in the best Budget.
			ranked := oracleDecide(cfg, finite, nil).Offload
			in, inFinite := cands, finite
			if budget > 1 && budget <= len(ranked) {
				again := Candidate{Pattern: ranked[budget-1], ActiveEpochs: 8, MedianPPS: 1 << 20, Priority: 1}
				in, inFinite = append(slices.Clone(cands), again), append(slices.Clone(finite), again)
			}
			want := oracleDecide(cfg, inFinite, offloaded)
			sorted, shuffled := slices.Clone(in), slices.Clone(in)
			slices.SortFunc(sorted, func(a, b Candidate) int { return a.Pattern.Compare(b.Pattern) })
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for name, c := range map[string][]Candidate{"sorted": sorted, "shuffled": shuffled} {
				if got := Decide(cfg, c, offloaded); !reflect.DeepEqual(want, got) {
					t.Fatalf("seed %d budget %d (%d eligible), %s input: Decide diverged\noracle: %+v\ngot:    %+v",
						seed, budget, eligible, name, want, got)
				}
			}
		}
	}
}

// TestSmootherSteadyStateAllocs: an Advance over the set it already holds
// sorts nothing, so it allocates its output and nothing else.
func TestSmootherSteadyStateAllocs(t *testing.T) {
	cands, offloaded := benchCandidates(1536)
	s := NewSmoother(DefaultSmootherConfig())
	s.Advance(cands, offloaded)
	if got := testing.AllocsPerRun(20, func() { s.Advance(cands, offloaded) }); got != 1 {
		t.Fatalf("steady-state Advance over %d patterns allocates %v times, want 1 (its output)", len(cands), got)
	}
}
