package vswitch

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
)

// verdictRec is one classification outcome; the differential test
// compares multisets of these between shard configurations, so results
// must match byte-for-byte modulo delivery order.
type verdictRec struct {
	key   packet.FlowKey
	allow bool
	queue int
}

// diffWorkload is a deterministic 10k-packet workload in phases, with a
// control-plane churn step applied at every phase boundary. Both the
// 1-shard and 4-shard runs replay it exactly.
type diffWorkload struct {
	vmKeys []VMKey
	vmRule []*rules.VMRules
	phases [][]*packet.Packet
	srcs   [][]VMKey
	churn  []func(pl *ShardedPlane)
}

func buildDiffWorkload(seed int64) *diffWorkload {
	const (
		numVMs      = 8
		numPhases   = 10
		pktsPerStep = 1000
	)
	rng := rand.New(rand.NewSource(seed))
	w := &diffWorkload{}
	for i := 0; i < numVMs; i++ {
		key := VMKey{Tenant: 3, IP: packet.MakeIP(10, 0, 0, byte(1+i))}
		w.vmKeys = append(w.vmKeys, key)
		w.vmRule = append(w.vmRule, planeRuleSet(rng, 3, key.IP))
	}
	remote := func(i int) packet.IP { return packet.MakeIP(10, 0, 9, byte(i)) }
	for ph := 0; ph < numPhases; ph++ {
		var pkts []*packet.Packet
		var srcs []VMKey
		for i := 0; i < pktsPerStep; i++ {
			src := w.vmKeys[rng.Intn(len(w.vmKeys))]
			var dst packet.IP
			switch rng.Intn(3) {
			case 0:
				dst = w.vmKeys[rng.Intn(len(w.vmKeys))].IP // local
			case 1:
				dst = remote(rng.Intn(4)) // tunneled (mapping may churn away)
			default:
				dst = remote(4 + rng.Intn(4)) // never mapped: unrouted
			}
			pkts = append(pkts, packet.NewTCP(3, src.IP, dst,
				uint16(40000+rng.Intn(128)), uint16(8000+rng.Intn(10)), 200))
			srcs = append(srcs, src)
		}
		w.phases = append(w.phases, pkts)
		w.srcs = append(w.srcs, srcs)

		// Churn step for the boundary after this phase: rule replacement,
		// tunnel add/remove, or a wholesale invalidation — all epoch-
		// published, all identical across runs.
		vi := rng.Intn(numVMs)
		newRules := planeRuleSet(rng, 3, w.vmKeys[vi].IP)
		ti := rng.Intn(4)
		tunnelUp := rng.Intn(2) == 0
		w.churn = append(w.churn, func(pl *ShardedPlane) {
			pl.AttachVM(w.vmKeys[vi], newRules)
			if tunnelUp {
				pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: remote(ti), Remote: srvB})
			} else {
				removeTunnel(pl, 3, remote(ti))
			}
			pl.Invalidate(rules.Pattern{Tenant: 3})
		})
	}
	return w
}

// runDiff replays the workload on a fresh plane with the given shard
// count, returning the verdict multiset and final counters. Churn is
// applied at barrier-synchronized phase boundaries, so each phase
// classifies against one well-defined epoch in both configurations.
func runDiff(w *diffWorkload, shards int) (map[verdictRec]int, PlaneCounters) {
	var mu sync.Mutex
	verdicts := map[verdictRec]int{}
	pl := NewShardedPlane(PlaneConfig{
		Shards: shards, Tunneling: true, ServerIP: srvA,
		OnVerdict: func(_ int, k packet.FlowKey, allow bool, queue int) {
			mu.Lock()
			verdicts[verdictRec{k, allow, queue}]++
			mu.Unlock()
		},
	})
	defer pl.Close()
	for i, key := range w.vmKeys {
		pl.AttachVM(key, w.vmRule[i])
	}
	for i := 0; i < 2; i++ {
		pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: packet.MakeIP(10, 0, 9, byte(i)), Remote: srvB})
	}
	inj := pl.NewInjector()
	for ph := range w.phases {
		for i, p := range w.phases[ph] {
			inj.Egress(w.srcs[ph][i], p)
		}
		inj.Flush()
		pl.Barrier()
		w.churn[ph](pl)
	}
	pl.Barrier()
	return verdicts, pl.Counters()
}

// TestPlaneDifferential1v4Shards is the ISSUE's differential gate: 10k
// randomized packets through 1-shard and 4-shard pipelines under rule
// churn must produce identical per-flow verdict multisets and conserved,
// identical per-cause outcome counters (order of delivery aside).
//
// The 1-shard run is the inline deterministic mode; the 4-shard run uses
// real worker goroutines, so this also runs meaningfully under -race.
func TestPlaneDifferential1v4Shards(t *testing.T) {
	w := buildDiffWorkload(42)
	v1, c1 := runDiff(w, 1)
	w4 := buildDiffWorkload(42) // fresh packets: buffers are not shared between runs
	v4, c4 := runDiff(w4, 4)

	if len(v1) != len(v4) {
		t.Fatalf("distinct (flow, verdict) records: 1-shard %d vs 4-shard %d", len(v1), len(v4))
	}
	for r, n := range v1 {
		if v4[r] != n {
			t.Fatalf("verdict %+v seen %d times on 1 shard, %d on 4", r, n, v4[r])
		}
	}

	// Outcome counters must agree per cause; vector/flush bookkeeping may
	// differ (4 shards flush caches independently).
	type outcomes struct {
		packets, tx, localTx, denied, unrouted uint64
		drops                                  uint64
	}
	o := func(c PlaneCounters) outcomes {
		return outcomes{c.Packets, c.Tx, c.LocalTx, c.Denied, c.Unrouted, c.Drops.Total()}
	}
	if o(c1) != o(c4) {
		t.Fatalf("outcome counters diverged:\n1-shard %+v\n4-shard %+v", o(c1), o(c4))
	}
	if acc := c4.Tx + c4.Denied + c4.Unrouted + c4.Drops.Total(); acc != c4.Packets {
		t.Fatalf("4-shard conservation violated: %+v", c4)
	}
	if c1.Packets != 10000 {
		t.Fatalf("workload processed %d packets, want 10000", c1.Packets)
	}
}
