package decision

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

func pat(port uint16) rules.Pattern {
	return rules.AggregatePattern(packet.AggregateKey{
		VMIP: packet.MustParseIP("10.0.0.2"), Port: port, Tenant: 3, Dir: packet.Ingress,
	})
}

func cand(port uint16, epochs uint32, pps float64) Candidate {
	return Candidate{Pattern: pat(port), ActiveEpochs: epochs, MedianPPS: pps}
}

func TestScoreFormula(t *testing.T) {
	c := cand(1, 7, 5000)
	if got := c.Score(); got != 7*5000 {
		t.Errorf("S = %v, want n×m_pps = 35000", got)
	}
	c.Priority = 2
	if got := c.Score(); got != 7*5000*2 {
		t.Errorf("S with priority = %v, want 70000", got)
	}
}

func TestDecideSelectsHighestScores(t *testing.T) {
	// The Table 4 scenario: memcached at 5618 pps vs scp at 135 pps,
	// budget for one.
	cands := []Candidate{
		cand(22, 8, 135),     // scp
		cand(11211, 8, 5618), // memcached
	}
	d := Decide(Config{Budget: 1}, cands, nil)
	if len(d.Offload) != 1 {
		t.Fatalf("offloaded %d", len(d.Offload))
	}
	if d.Offload[0] != pat(11211) {
		t.Errorf("offloaded %v, want memcached", d.Offload[0])
	}
}

func TestDecideRespectsBudget(t *testing.T) {
	var cands []Candidate
	for i := uint16(0); i < 50; i++ {
		cands = append(cands, cand(1000+i, 4, float64(100+i)))
	}
	d := Decide(Config{Budget: 10}, cands, nil)
	if len(d.Offload) != 10 {
		t.Errorf("offloaded %d, want 10", len(d.Offload))
	}
	// The selected must be the ten highest-pps candidates.
	for _, p := range d.Offload {
		if p.DstPort < 1040 {
			t.Errorf("low-score candidate %v selected", p)
		}
	}
}

func TestDecideDemotesDisplaced(t *testing.T) {
	offloaded := map[rules.Pattern]bool{pat(1): true}
	cands := []Candidate{
		cand(1, 2, 10),    // formerly hot, now cold
		cand(2, 8, 90000), // new hot flow
	}
	d := Decide(Config{Budget: 1}, cands, offloaded)
	if len(d.Offload) != 1 || d.Offload[0] != pat(2) {
		t.Fatalf("offload = %v", d.Offload)
	}
	if len(d.Demote) != 1 || d.Demote[0] != pat(1) {
		t.Fatalf("demote = %v", d.Demote)
	}
}

func TestDecideKeepsIncumbentUnderHysteresis(t *testing.T) {
	offloaded := map[rules.Pattern]bool{pat(1): true}
	cands := []Candidate{
		cand(1, 4, 1000), // incumbent
		cand(2, 4, 1100), // challenger only 10% better
	}
	d := Decide(Config{Budget: 1, HysteresisRatio: 1.5}, cands, offloaded)
	if len(d.Offload) != 1 || d.Offload[0] != pat(1) {
		t.Errorf("hysteresis lost: offload = %v", d.Offload)
	}
	// A challenger beating the margin wins.
	cands[1].MedianPPS = 2000
	d = Decide(Config{Budget: 1, HysteresisRatio: 1.5}, cands, offloaded)
	if len(d.Offload) != 1 || d.Offload[0] != pat(2) {
		t.Errorf("strong challenger lost: offload = %v", d.Offload)
	}
}

func TestDecideFiltersInactive(t *testing.T) {
	cands := []Candidate{
		cand(1, 0, 5000), // zero active epochs
		cand(2, 4, 0),    // zero pps
	}
	d := Decide(Config{Budget: 10}, cands, nil)
	if len(d.Offload) != 0 {
		t.Errorf("inactive candidates offloaded: %v", d.Offload)
	}
}

func TestDecideMinScore(t *testing.T) {
	cands := []Candidate{cand(1, 1, 10)} // S = 10
	d := Decide(Config{Budget: 10, MinScore: 100}, cands, nil)
	if len(d.Offload) != 0 {
		t.Error("sub-threshold candidate offloaded")
	}
}

func TestDecideDeterministic(t *testing.T) {
	cands := []Candidate{cand(3, 4, 100), cand(1, 4, 100), cand(2, 4, 100)}
	a := Decide(Config{Budget: 2}, cands, nil)
	b := Decide(Config{Budget: 2}, []Candidate{cands[2], cands[0], cands[1]}, nil)
	if len(a.Offload) != len(b.Offload) {
		t.Fatal("length differs")
	}
	for i := range a.Offload {
		if a.Offload[i] != b.Offload[i] {
			t.Error("tie-break order depends on input order")
		}
	}
}

func TestCandidatesFromReportsMergesHardware(t *testing.T) {
	rep := openflow.DemandReport{Entries: []openflow.DemandEntry{
		{Pattern: pat(1), MedianPPS: 500, MedianBPS: 1e6, ActiveEpochs: 3},
	}}
	hw := map[rules.Pattern]float64{
		pat(1): 9000, // flow now lives in hardware: vswitch undercounts
		pat(2): 700,  // hardware-only flow
	}
	cands := CandidatesFromReports([]openflow.DemandReport{rep}, hw, nil)
	if len(cands) != 2 {
		t.Fatalf("candidates = %d", len(cands))
	}
	byPat := map[rules.Pattern]Candidate{}
	for _, c := range cands {
		byPat[c.Pattern] = c
	}
	if byPat[pat(1)].MedianPPS != 9000 {
		t.Errorf("hardware rate did not win: %v", byPat[pat(1)].MedianPPS)
	}
	if byPat[pat(2)].ActiveEpochs == 0 {
		t.Error("hardware-only flow has zero epochs")
	}
}

func TestCandidatesPriority(t *testing.T) {
	rep := openflow.DemandReport{Entries: []openflow.DemandEntry{
		{Pattern: pat(1), MedianPPS: 100, ActiveEpochs: 1},
	}}
	cands := CandidatesFromReports([]openflow.DemandReport{rep}, nil, func(t packet.TenantID) float64 {
		return 3.0
	})
	if cands[0].Priority != 3.0 {
		t.Errorf("priority = %v", cands[0].Priority)
	}
}

func TestLimiterSplits(t *testing.T) {
	l := NewLimiter(1e9, 1e9)
	split := l.Adjust(
		demand(100e6), demand(700e6), // egress: hw dominant
		demand(400e6), demand(400e6), // ingress: even
	)
	if split.EgressHardBps <= split.EgressSoftBps {
		t.Errorf("egress split ignores demand: soft=%v hard=%v", split.EgressSoftBps, split.EgressHardBps)
	}
	if split.IngressSoftBps <= 0 || split.IngressHardBps <= 0 {
		t.Error("ingress limits not positive")
	}
}

func demand(bps float64) (d fpsDemand) { return fpsDemand{RateBps: bps} }

// fpsDemand aliases fps.Demand to keep the test focused.
type fpsDemand = struct {
	RateBps  float64
	Flows    int
	MaxedOut bool
	Stale    bool
}

// Property: Decide never exceeds budget, never offloads and demotes the
// same pattern, and demotes only previously offloaded patterns.
func TestDecideInvariants(t *testing.T) {
	f := func(ports []uint16, epochs []uint8, budget uint8) bool {
		var cands []Candidate
		offloaded := map[rules.Pattern]bool{}
		for i, p := range ports {
			e := uint32(1)
			if i < len(epochs) {
				e = uint32(epochs[i])
			}
			cands = append(cands, cand(p, e, float64(100+i)))
			if i%3 == 0 {
				offloaded[pat(p)] = true
			}
		}
		d := Decide(Config{Budget: int(budget % 16)}, cands, offloaded)
		if len(d.Offload) > int(budget%16) {
			return false
		}
		off := map[rules.Pattern]bool{}
		for _, p := range d.Offload {
			if off[p] {
				return false // duplicate
			}
			off[p] = true
		}
		for _, p := range d.Demote {
			if off[p] || !offloaded[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecideAtomicGroupAllOrNothing(t *testing.T) {
	group := []rules.Pattern{pat(1), pat(2)}
	cands := []Candidate{
		cand(1, 8, 9000), // group member, very hot
		cand(2, 8, 8000), // group member, very hot
		cand(3, 8, 100),  // loner, cool
	}
	// Budget 1: the group cannot fit → neither member offloads; the
	// loner takes the slot despite its lower score.
	d := Decide(Config{Budget: 1, Groups: [][]rules.Pattern{group}}, cands, nil)
	if len(d.Offload) != 1 || d.Offload[0] != pat(3) {
		t.Fatalf("budget 1 offload = %v, want only the loner", d.Offload)
	}
	// Budget 2: the group fits as a unit and outranks the loner.
	d = Decide(Config{Budget: 2, Groups: [][]rules.Pattern{group}}, cands, nil)
	if len(d.Offload) != 2 {
		t.Fatalf("budget 2 offload = %v, want the full group", d.Offload)
	}
	got := map[rules.Pattern]bool{d.Offload[0]: true, d.Offload[1]: true}
	if !got[pat(1)] || !got[pat(2)] {
		t.Errorf("group split: %v", d.Offload)
	}
}

func TestDecideGroupDemotedTogether(t *testing.T) {
	group := []rules.Pattern{pat(1), pat(2)}
	offloaded := map[rules.Pattern]bool{pat(1): true, pat(2): true}
	cands := []Candidate{
		cand(1, 8, 5000),
		cand(2, 0, 0),      // this member went cold: poisons the group
		cand(3, 8, 300000), // hot challenger
	}
	d := Decide(Config{Budget: 2, Groups: [][]rules.Pattern{group}}, cands, offloaded)
	// The whole group is demoted, not just the cold member.
	if len(d.Demote) != 2 {
		t.Fatalf("demote = %v, want both group members", d.Demote)
	}
	for _, p := range d.Offload {
		if p == pat(1) || p == pat(2) {
			t.Errorf("group member %v stayed offloaded", p)
		}
	}
}

// A group that no longer fits wholly within the budget — because a hotter
// loner takes part of it — must be demoted atomically, never retained in
// part.
func TestDecideGroupPartialDisplacementDemotesAtomically(t *testing.T) {
	group := []rules.Pattern{pat(1), pat(2)}
	offloaded := map[rules.Pattern]bool{pat(1): true, pat(2): true}
	cands := []Candidate{
		cand(1, 8, 1000),
		cand(2, 8, 1000),
		cand(3, 8, 900000), // outranks the whole group on its own
	}
	d := Decide(Config{Budget: 2, Groups: [][]rules.Pattern{group}}, cands, offloaded)
	// The loner wins a slot; the group needs two contiguous slots and only
	// one remains, so both members leave hardware together.
	if len(d.Offload) != 1 || d.Offload[0] != pat(3) {
		t.Fatalf("offload = %v, want only the loner", d.Offload)
	}
	if len(d.Demote) != 2 {
		t.Fatalf("demote = %v, want both group members", d.Demote)
	}
}

// Hysteresis applies to groups through the sum of member scores: an
// incumbent group holds its slots against a challenger inside the margin
// and yields to one beyond it.
func TestDecideGroupHysteresis(t *testing.T) {
	group := []rules.Pattern{pat(1), pat(2)}
	offloaded := map[rules.Pattern]bool{pat(1): true, pat(2): true}
	cands := []Candidate{
		cand(1, 4, 1000),
		cand(2, 4, 1000),
		cand(3, 4, 2200), // beats the raw group sum (2000) but not ×1.5
	}
	cfg := Config{Budget: 2, HysteresisRatio: 1.5, Groups: [][]rules.Pattern{group}}
	d := Decide(cfg, cands, offloaded)
	if len(d.Demote) != 0 {
		t.Errorf("in-margin challenger displaced the group: demote = %v", d.Demote)
	}
	// Beyond the margin the group yields — atomically.
	cands[2].MedianPPS = 4000
	d = Decide(cfg, cands, offloaded)
	if len(d.Offload) != 1 || d.Offload[0] != pat(3) {
		t.Errorf("strong challenger lost: offload = %v", d.Offload)
	}
	if len(d.Demote) != 2 {
		t.Errorf("demote = %v, want both group members", d.Demote)
	}
}

// HysteresisRatio below 1 would turn the incumbent bonus into a penalty —
// a slightly weaker challenger could evict a hotter incumbent every
// interval, the exact thrashing hysteresis exists to prevent. The config
// must normalize it to 1 (no hysteresis, never anti-hysteresis).
func TestDecideHysteresisRatioBelowOneBehavesAsOne(t *testing.T) {
	offloaded := map[rules.Pattern]bool{pat(1): true}
	cands := []Candidate{
		cand(1, 4, 1000), // incumbent, hotter
		cand(2, 4, 900),  // challenger, cooler
	}
	d := Decide(Config{Budget: 1, HysteresisRatio: 0.25}, cands, offloaded)
	if len(d.Offload) != 1 || d.Offload[0] != pat(1) {
		t.Errorf("ratio<1 penalized the incumbent: offload = %v", d.Offload)
	}
	if len(d.Demote) != 0 {
		t.Errorf("hotter incumbent demoted: %v", d.Demote)
	}
}

// rankKeyEdges are the float64s where an order on bit patterns can go
// wrong: both zeros, both infinities, NaNs of either sign and another
// payload, subnormals at both ends, and the normal range's ends.
var rankKeyEdges = []float64{
	math.NaN(), -math.NaN(), math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff8_0000_0000_0001),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), -math.Float64frombits(0x000f_ffff_ffff_ffff),
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1, -1, 1.5, 640,
}

// checkRankKey fails unless scoreKey orders a and b as cmp.Compare(b, a).
func checkRankKey(t *testing.T, a, b float64) {
	t.Helper()
	if want, got := cmp.Compare(b, a), cmp.Compare(scoreKey(a), scoreKey(b)); want != got {
		t.Fatalf("scores %v (%#x), %v (%#x): keys compare %d, cmp.Compare(b, a) = %d",
			a, math.Float64bits(a), b, math.Float64bits(b), got, want)
	}
}

// TestRankKeyOrdersAsCompare: on every pair of edge values and on random
// bit patterns, the integer rank key orders scores descending exactly as
// cmp.Compare does, −0 equal to +0 and NaN last.
func TestRankKeyOrdersAsCompare(t *testing.T) {
	for _, a := range rankKeyEdges {
		for _, b := range rankKeyEdges {
			checkRankKey(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		a, b := math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		checkRankKey(t, a, b)
		checkRankKey(t, a, rankKeyEdges[i%len(rankKeyEdges)])
	}
}

func FuzzRankKey(f *testing.F) {
	for i, a := range rankKeyEdges {
		f.Add(math.Float64bits(a), math.Float64bits(rankKeyEdges[(i+1)%len(rankKeyEdges)]))
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		checkRankKey(t, math.Float64frombits(a), math.Float64frombits(b))
	})
}
