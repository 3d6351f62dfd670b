package experiments

import (
	"slices"
	"testing"
	"time"
)

// TestTieredLadder is the acceptance check for the three-rung placement
// ladder: the latecomer's patterns graduate software → NIC → TCAM, the
// displaced incumbents demote, flows actually ride the SmartNIC tier,
// and packet conservation closes with zero blackhole drops.
func TestTieredLadder(t *testing.T) {
	res, err := RunTiered(TieredConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Delivered == 0 {
		t.Fatalf("no traffic: sent=%d delivered=%d", res.Sent, res.Delivered)
	}
	if len(res.Graduated) == 0 {
		t.Errorf("no pattern graduated nic->tcam\n settle: %v\n end: %v\n log tail: %v",
			res.TiersAtSettle, res.TiersEnd, tail(res.Log, 20))
	}
	if len(res.DemotedUnderPressure) == 0 {
		t.Errorf("no incumbent demoted under pressure\n settle: %v\n end: %v",
			res.TiersAtSettle, res.TiersEnd)
	}
	if res.NIC.Hits == 0 {
		t.Errorf("no SmartNIC datapath hits: %v", res.NIC)
	}
	if res.NICPlacements == 0 || res.NICDemotes == 0 {
		t.Errorf("NIC tier never churned: placements=%d demotes=%d",
			res.NICPlacements, res.NICDemotes)
	}
	if res.BlackholeDrops != 0 {
		t.Errorf("blackholed packets: %d (rule divergence)", res.BlackholeDrops)
	}
	if res.Unaccounted != 0 {
		t.Errorf("conservation violated: %d packets unaccounted (sent=%d delivered=%d queue=%d shape=%d upcall=%d clamp=%d rate=%d)",
			res.Unaccounted, res.Sent, res.Delivered, res.LinkQueueDrops,
			res.ShapeDrops, res.UpcallQueueDrops, res.ClampDrops, res.RateDrops)
	}
	if !res.Passed() {
		t.Error("Passed() is false despite individual invariants holding")
	}
}

// TestTieredDeterminism: equal seeds reproduce a byte-identical event
// log; a different seed produces a different one.
func TestTieredDeterminism(t *testing.T) {
	cfg := TieredConfig{Seed: 9, Horizon: 4 * time.Second, Drain: time.Second}
	a, err := RunTiered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTiered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Log) == 0 {
		t.Fatal("empty event log")
	}
	if !slices.Equal(a.Log, b.Log) {
		t.Fatalf("same seed, different logs:\n a: %v\n b: %v", tail(a.Log, 10), tail(b.Log, 10))
	}
	cfg.Seed = 10
	c, err := RunTiered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a.Log, c.Log) {
		t.Error("different seeds produced identical logs; runs are not seed-sensitive")
	}
}

// TestTieredNoBlackholeUnderChurn is the three-tier no-blackhole
// property test: across seeded random fault plans — NIC resets and
// corruption, TCAM install rejections, link flaps and loss, control-
// channel failures, controller crashes — layered on the latecomer's
// promote/demote churn, no packet is ever lost to rule divergence and
// the conservation equation closes exactly. Rules may vanish from any
// tier at any instant; flows must degrade to a lower tier, never to
// loss.
func TestTieredNoBlackholeUnderChurn(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for i := 0; i < seeds; i++ {
		seed := int64(i)
		res, err := RunTiered(TieredConfig{
			Seed: seed, Chaos: true, FaultSeed: 13*seed + 7,
			Horizon: 6 * time.Second, Drain: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Sent == 0 {
			t.Fatalf("seed %d: no traffic", seed)
		}
		if res.NIC.Hits == 0 {
			t.Errorf("seed %d: NIC tier never carried a packet", seed)
		}
		if res.BlackholeDrops != 0 {
			t.Errorf("seed %d: %d packets blackholed\n faults: %v",
				seed, res.BlackholeDrops, res.FaultLog)
		}
		if res.Unaccounted != 0 {
			t.Errorf("seed %d: conservation violated by %d (sent=%d delivered=%d queue=%d down=%d loss=%d shape=%d upcall=%d clamp=%d rate=%d)\n faults: %v",
				seed, res.Unaccounted, res.Sent, res.Delivered,
				res.LinkQueueDrops, res.LinkDownDrops, res.LinkLossDrops,
				res.ShapeDrops, res.UpcallQueueDrops, res.ClampDrops, res.RateDrops,
				res.FaultLog)
		}
	}
}

func tail(s []string, n int) []string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}
