package decision

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/rules"
)

func patT(tenant packet.TenantID, port uint16) rules.Pattern {
	return rules.AggregatePattern(packet.AggregateKey{
		VMIP: packet.MustParseIP("10.0.0.2"), Port: port, Tenant: tenant, Dir: packet.Egress,
	})
}

// TestTieredCapacityZeroDifferential is the seed-equivalence guard: with
// no SmartNICs (nil or empty nics map) DecideTiered's TCAM decision is
// byte-identical to the 2-level Decide on the same inputs, and no NIC
// decisions appear. Randomized over many candidate sets, incumbent sets
// and configs.
func TestTieredCapacityZeroDifferential(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30)
		cands := make([]Candidate, 0, n)
		offloaded := map[rules.Pattern]bool{}
		for i := 0; i < n; i++ {
			p := patT(packet.TenantID(1+rng.Intn(4)), uint16(1000+rng.Intn(20)))
			cands = append(cands, Candidate{
				Pattern:      p,
				ActiveEpochs: uint32(rng.Intn(8)),
				MedianPPS:    float64(rng.Intn(10000)),
				Priority:     float64(rng.Intn(3)),
			})
			if rng.Intn(3) == 0 {
				offloaded[p] = true
			}
		}
		cfg := TieredConfig{
			TCAM: Config{
				Budget:          rng.Intn(8),
				MinScore:        float64(rng.Intn(2000)),
				HysteresisRatio: 1 + rng.Float64(),
			},
			// NIC knobs must be inert without NICs.
			NICMinScore:    float64(rng.Intn(100)),
			NICTenantQuota: 1 + rng.Intn(3),
		}
		want := Decide(cfg.TCAM, cands, offloaded)
		for _, nics := range []map[int]NICState{nil, {}} {
			td := DecideTiered(cfg, cands, offloaded, nics, nil)
			if !reflect.DeepEqual(td.TCAM, want) {
				t.Fatalf("seed %d: TCAM decision diverges from 2-level Decide\n tiered: %+v\n  plain: %+v",
					seed, td.TCAM, want)
			}
			if td.NIC != nil {
				t.Fatalf("seed %d: NIC decisions without NICs: %+v", seed, td.NIC)
			}
		}
	}
}

// TestTieredMiddleBand pins the ladder shape: the hottest flow wins the
// TCAM, the middle band lands on its sourcing host's NIC, and flows
// under NICMinScore stay in software.
func TestTieredMiddleBand(t *testing.T) {
	hot, mid, cold := patT(3, 1), patT(3, 2), patT(3, 3)
	cands := []Candidate{
		{Pattern: hot, ActiveEpochs: 4, MedianPPS: 5000},
		{Pattern: mid, ActiveEpochs: 4, MedianPPS: 500},
		{Pattern: cold, ActiveEpochs: 4, MedianPPS: 1},
	}
	hostOf := func(p rules.Pattern) (int, bool) { return 7, true }
	td := DecideTiered(TieredConfig{
		TCAM:        Config{Budget: 1},
		NICMinScore: 100,
	}, cands, nil, map[int]NICState{7: {Budget: 4}}, hostOf)
	if len(td.TCAM.Offload) != 1 || td.TCAM.Offload[0] != hot {
		t.Fatalf("TCAM = %v, want [%v]", td.TCAM.Offload, hot)
	}
	if got := td.NIC[7].Offload; len(got) != 1 || got[0] != mid {
		t.Fatalf("NIC = %v, want [%v] (hot is in the TCAM, cold under MinScore)", got, mid)
	}
}

// TestTieredQuota: the per-tenant quota keeps each tenant's best rules
// and demotes a placed incumbent it squeezes out.
func TestTieredQuota(t *testing.T) {
	a, b, c := patT(3, 1), patT(3, 2), patT(4, 3)
	cands := []Candidate{
		{Pattern: a, ActiveEpochs: 4, MedianPPS: 900},
		{Pattern: b, ActiveEpochs: 4, MedianPPS: 800},
		{Pattern: c, ActiveEpochs: 4, MedianPPS: 700},
	}
	hostOf := func(p rules.Pattern) (int, bool) { return 0, true }
	td := DecideTiered(TieredConfig{
		TCAM:           Config{Budget: 0},
		NICTenantQuota: 1,
	}, cands, nil, map[int]NICState{0: {Budget: 4, Placed: map[rules.Pattern]bool{b: true}}}, hostOf)
	d := td.NIC[0]
	if len(d.Offload) != 2 || d.Offload[0] != a || d.Offload[1] != c {
		t.Fatalf("Offload = %v, want [%v %v] (quota keeps tenant 3's best)", d.Offload, a, c)
	}
	found := false
	for _, p := range d.Demote {
		if p == b {
			found = true
		}
	}
	if !found {
		t.Fatalf("Demote = %v, want it to include squeezed incumbent %v", d.Demote, b)
	}
}

// TestTieredNICHysteresis: a NIC incumbent holds its slot until a
// challenger beats it by the tier's hysteresis ratio.
func TestTieredNICHysteresis(t *testing.T) {
	inc, chal := patT(3, 1), patT(3, 2)
	hostOf := func(p rules.Pattern) (int, bool) { return 0, true }
	run := func(challengerPPS float64) Decision {
		cands := []Candidate{
			{Pattern: inc, ActiveEpochs: 4, MedianPPS: 1000},
			{Pattern: chal, ActiveEpochs: 4, MedianPPS: challengerPPS},
		}
		td := DecideTiered(TieredConfig{
			TCAM: Config{Budget: 0, HysteresisRatio: 1.5},
		}, cands, nil, map[int]NICState{0: {Budget: 1, Placed: map[rules.Pattern]bool{inc: true}}}, hostOf)
		return td.NIC[0]
	}
	if d := run(1200); len(d.Offload) != 1 || d.Offload[0] != inc {
		t.Errorf("challenger within hysteresis displaced incumbent: %v", d.Offload)
	}
	if d := run(2000); len(d.Offload) != 1 || d.Offload[0] != chal {
		t.Errorf("challenger beyond hysteresis failed to displace: %v", d.Offload)
	}
}

// Property: across random inputs, no pattern is placed on two tiers at
// once, each host's NIC offload set respects its budget, and NIC demotes
// only name that host's placed patterns.
func TestTieredInvariants(t *testing.T) {
	f := func(ports []uint16, budgets []uint8, tcamBudget uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []Candidate
		placed := map[int]map[rules.Pattern]bool{}
		hosts := 1 + int(tcamBudget%3)
		for h := 0; h < hosts; h++ {
			placed[h] = map[rules.Pattern]bool{}
		}
		hostOf := func(p rules.Pattern) (int, bool) {
			if p.SrcPort == 0 {
				return 0, false
			}
			return int(p.SrcPort) % hosts, true
		}
		for i, port := range ports {
			p := patT(packet.TenantID(1+i%3), port)
			cands = append(cands, Candidate{Pattern: p, ActiveEpochs: 2, MedianPPS: float64(100 + rng.Intn(5000))})
			if h, ok := hostOf(p); ok && rng.Intn(3) == 0 {
				placed[h][p] = true
			}
		}
		nics := map[int]NICState{}
		for h := 0; h < hosts; h++ {
			b := 1
			if h < len(budgets) {
				b = int(budgets[h] % 8)
			}
			nics[h] = NICState{Budget: b, Placed: placed[h]}
		}
		td := DecideTiered(TieredConfig{
			TCAM:           Config{Budget: int(tcamBudget % 8)},
			NICTenantQuota: 2,
		}, cands, nil, nics, hostOf)

		inTCAM := map[rules.Pattern]bool{}
		for _, p := range td.TCAM.Offload {
			inTCAM[p] = true
		}
		for h, d := range td.NIC {
			if len(d.Offload) > nics[h].Budget {
				return false
			}
			for _, p := range d.Offload {
				if inTCAM[p] {
					return false // double placement
				}
				if got, ok := hostOf(p); !ok || got != h {
					return false // placed on a host that never sources it
				}
			}
			for _, p := range d.Demote {
				if !nics[h].Placed[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
