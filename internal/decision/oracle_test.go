package decision

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/openflow"
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
			HysteresisRatio: cfg.NICHysteresisRatio,
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
				TCAM:               Config{Budget: 8 + rng.Intn(8), HysteresisRatio: 1.2},
				NICMinScore:        10,
				NICHysteresisRatio: 1.1,
				NICTenantQuota:     3,
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

// TestDecisionPassAllocs gates one control interval's decision pass over
// 1,536 distinct reported patterns (CandidatesFromReports →
// Smoother.Advance → Decide → FlapDamper.Apply) in steady state. The
// string comparators this order replaced cost 521 k allocations here.
func TestDecisionPassAllocs(t *testing.T) {
	const n, budget = 1536, 640
	pool, _ := benchCandidates(n)
	reports := make([]openflow.DemandReport, 16)
	for i, c := range pool {
		r := &reports[i%len(reports)]
		r.Entries = append(r.Entries, openflow.DemandEntry{
			Pattern: c.Pattern, ActiveEpochs: c.ActiveEpochs, MedianPPS: c.MedianPPS,
		})
	}
	cfg := Config{Budget: budget, HysteresisRatio: 1.2}
	smoother := NewSmoother(DefaultSmootherConfig())
	damper := NewFlapDamper(DefaultDamperConfig())
	current := map[rules.Pattern]bool{}
	pass := func() Decision {
		cands := CandidatesFromReports(reports, nil, nil)
		cands = smoother.Advance(cands, current)
		return damper.Apply(Decide(cfg, cands, current), current, 0)
	}
	applyDecision(current, pass()) // fill smoother and damper state, load the table
	if len(current) != budget {
		t.Fatalf("warm-up offloaded %d patterns, want a full table of %d", len(current), budget)
	}
	if got := testing.AllocsPerRun(10, func() { pass() }); got > 200 {
		t.Fatalf("decision pass over %d patterns allocates %v times, gate is 200", n, got)
	}
}
