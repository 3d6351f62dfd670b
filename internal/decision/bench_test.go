package decision

import (
	"math/rand"
	"testing"

	"repro/internal/openflow"
	"repro/internal/packet"
	"repro/internal/rules"
)

// benchCandidates builds a deterministic candidate pool: n aggregates
// across 8 tenants with log-uniform rates, plus the incumbent set a
// steady-state controller would carry.
func benchCandidates(n int) ([]Candidate, map[rules.Pattern]bool) {
	rng := rand.New(rand.NewSource(7))
	cands := make([]Candidate, n)
	offloaded := make(map[rules.Pattern]bool)
	for i := range cands {
		cands[i] = Candidate{
			Pattern:      patT(packet.TenantID(1+i%8), uint16(1000+i)),
			ActiveEpochs: uint32(1 + rng.Intn(8)),
			MedianPPS:    float64(uint64(1) << uint(rng.Intn(16))),
			Priority:     1,
		}
		if i%4 == 0 {
			offloaded[cands[i].Pattern] = true
		}
	}
	return cands, offloaded
}

// decisionPass builds one control interval's decision pass as the ToR
// controller runs it — CandidatesFromReports → Smoother.Advance → Decide →
// FlapDamper.Apply — over n distinct patterns reported by 16 servers, and
// the offloaded set the pass decides against.
func decisionPass(n, budget int) (pass func() Decision, current map[rules.Pattern]bool) {
	reports := decisionReports(n)
	cfg := Config{Budget: budget, HysteresisRatio: 1.2}
	smoother := NewSmoother(DefaultSmootherConfig())
	damper := NewFlapDamper(DefaultDamperConfig())
	current = map[rules.Pattern]bool{}
	return func() Decision {
		cands := CandidatesFromReports(reports, nil, nil)
		cands = smoother.Advance(cands, current)
		return damper.Apply(Decide(cfg, cands, current), current, 0)
	}, current
}

// decisionReports spreads n distinct patterns over 16 servers' reports.
func decisionReports(n int) []openflow.DemandReport {
	pool, _ := benchCandidates(n)
	reports := make([]openflow.DemandReport, 16)
	for i, c := range pool {
		r := &reports[i%len(reports)]
		r.Entries = append(r.Entries, openflow.DemandEntry{
			Pattern: c.Pattern, ActiveEpochs: c.ActiveEpochs, MedianPPS: c.MedianPPS,
		})
	}
	return reports
}

// BenchmarkDecisionPass1536 is the steady-state decision pass of
// TestDecisionPassAllocs: 1,536 reported patterns against a full
// 640-entry TCAM.
func BenchmarkDecisionPass1536(b *testing.B) {
	pass, current := decisionPass(1536, 640)
	applyDecision(current, pass())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pass()
	}
}

// BenchmarkSmootherAdvance1536 is the smoother's part of that pass in
// steady state: the same 1,536 patterns every interval, in the merge
// order CandidatesFromReports leaves them in, none new and none dropped.
func BenchmarkSmootherAdvance1536(b *testing.B) {
	cands := CandidatesFromReports(decisionReports(1536), nil, nil)
	s := NewSmoother(DefaultSmootherConfig())
	s.Advance(cands, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Advance(cands, nil)
	}
}

// BenchmarkDecide is the 2-level engine on a controller-scale interval:
// 256 candidates against a 64-entry TCAM with incumbents and hysteresis.
func BenchmarkDecide(b *testing.B) {
	cands, offloaded := benchCandidates(256)
	cfg := Config{Budget: 64, MinScore: 10, HysteresisRatio: 1.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decide(cfg, cands, offloaded)
	}
}

// churn1pct drifts ~1% of candidate scores per cycle — the steady-state
// shape at scale: a million flows collapse into ~10^4 ranked aggregate
// patterns of which only a handful move rank between demand cycles.
func churn1pct(rng *rand.Rand, cands []Candidate) {
	for i := 0; i < len(cands)/100; i++ {
		j := rng.Intn(len(cands))
		cands[j].MedianPPS *= 0.5 + rng.Float64()
	}
}

// BenchmarkDecideExact10k is Decide at the ROADMAP scale point (10^6
// flows / 10^4 patterns): every cycle re-ranks all 10^4 patterns from
// scratch.
func BenchmarkDecideExact10k(b *testing.B) {
	cands, offloaded := benchCandidates(10000)
	cfg := Config{Budget: 1000, MinScore: 10, HysteresisRatio: 1.2}
	rng := rand.New(rand.NewSource(11))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Decide(cfg, cands, offloaded)
		b.StopTimer()
		applyDecision(offloaded, d)
		churn1pct(rng, cands)
		b.StartTimer()
	}
}

// BenchmarkDecideTiered is the N-level ladder on the same interval: the
// TCAM decision plus a per-host NIC-tier Decide across 8 SmartNICs, with
// per-tenant quotas. The delta over BenchmarkDecide is the cost of the
// extra tier.
func BenchmarkDecideTiered(b *testing.B) {
	cands, offloaded := benchCandidates(256)
	cfg := TieredConfig{
		TCAM:           Config{Budget: 64, MinScore: 10, HysteresisRatio: 1.2},
		NICMinScore:    2,
		NICTenantQuota: 8,
	}
	const hosts = 8
	nics := make(map[int]NICState, hosts)
	for s := 0; s < hosts; s++ {
		nics[s] = NICState{Budget: 16, Placed: map[rules.Pattern]bool{}}
	}
	// Seed NIC incumbents the way a running ladder would: low-ranked
	// candidates already placed on their sourcing host.
	hostOf := func(p rules.Pattern) (int, bool) { return int(p.SrcPort) % hosts, true }
	for i, c := range cands {
		if i%3 == 0 && !offloaded[c.Pattern] {
			h, _ := hostOf(c.Pattern)
			nics[h].Placed[c.Pattern] = true
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DecideTiered(cfg, cands, offloaded, nics, hostOf)
	}
}
