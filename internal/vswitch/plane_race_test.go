package vswitch

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
)

// TestPlaneRuleChurnRace is the ISSUE's -race gate for satellite 1: rule,
// tunnel, VIF-limit and NIC-placement mutations hammer the epoch
// publisher from a control goroutine while four shard workers forward
// traffic from two producers flat out. Before the epoch publisher,
// TunnelMapping and VIF-limit updates mutated tables the fast path was
// reading; now every mutation is a copy-on-write publish and the shards
// only ever read immutable snapshots — the race detector proves it.
//
// Assertions are deliberately coarse (conservation and liveness): the
// differential test owns verdict correctness. This test owns memory
// safety under concurrent churn.
func TestPlaneRuleChurnRace(t *testing.T) {
	pl := NewShardedPlane(PlaneConfig{Shards: 4, Tunneling: true, ServerIP: srvA})
	defer pl.Close()

	const numVMs = 8
	var vmKeys []VMKey
	seedRng := rand.New(rand.NewSource(5))
	for i := 0; i < numVMs; i++ {
		key := VMKey{Tenant: 3, IP: packet.MakeIP(10, 0, 0, byte(1+i))}
		vmKeys = append(vmKeys, key)
		pl.AttachVM(key, planeRuleSet(seedRng, 3, key.IP))
	}
	remote := func(i int) packet.IP { return packet.MakeIP(10, 0, 9, byte(i)) }
	for i := 0; i < 4; i++ {
		pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: remote(i), Remote: srvB})
	}

	const (
		producers    = 2
		passes       = 30
		flowsPerProd = 256
	)
	var wg, ctlWg sync.WaitGroup
	var prodDone, ctlDone atomic.Bool
	// published counts the control goroutine's finished publishes.
	var published atomic.Uint64

	// Control plane: hammer every mutation path through the publisher for
	// as long as the producers are forwarding (bounded for safety). Each
	// producer pass waits for publishes begun after the previous pass
	// drained, so epoch churn overlaps shard processing on any schedule,
	// one core included.
	ctlWg.Add(1)
	go func() {
		defer ctlWg.Done()
		defer ctlDone.Store(true)
		rng := rand.New(rand.NewSource(99))
		for i := 0; !prodDone.Load() && i < 1_000_000; i++ {
			vi := rng.Intn(numVMs)
			switch rng.Intn(5) {
			case 0:
				pl.AttachVM(vmKeys[vi], planeRuleSet(rng, 3, vmKeys[vi].IP))
			case 1:
				pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: remote(rng.Intn(4)), Remote: srvB})
			case 2:
				removeTunnel(pl, 3, remote(rng.Intn(4)))
			case 3:
				pl.SetVIFLimit(vmKeys[vi], float64(1+rng.Intn(100))*1e9) // high: shape rarely
			default:
				pl.Invalidate(rules.Pattern{Tenant: 3})
			}
			published.Add(1)
		}
	}()

	// Data plane: each producer owns its injector and packet buffers, and
	// barriers between passes before resubmitting them.
	sent := make([]uint64, producers)
	for pr := 0; pr < producers; pr++ {
		pr := pr
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + pr)))
			var keys []VMKey
			var pkts []*packet.Packet
			for i := 0; i < flowsPerProd; i++ {
				src := vmKeys[rng.Intn(numVMs)]
				var dst packet.IP
				if rng.Intn(2) == 0 {
					dst = vmKeys[rng.Intn(numVMs)].IP
				} else {
					dst = remote(rng.Intn(6))
				}
				keys = append(keys, src)
				pkts = append(pkts, packet.NewTCP(3, src.IP, dst,
					uint16(40000+rng.Intn(512)), uint16(8000+rng.Intn(10)), 200))
			}
			inj := pl.NewInjector()
			var drained uint64
			for pass := 0; pass < passes; pass++ {
				// Of two publishes counted after the last drain, the
				// second began after it: its epoch is newer than any a
				// shard holds, so this pass flushes.
				for published.Load() < drained+2 && !ctlDone.Load() {
					runtime.Gosched()
				}
				for i, p := range pkts {
					inj.Egress(keys[i], p)
				}
				inj.Flush()
				pl.Barrier()
				drained = published.Load()
				sent[pr] += uint64(len(pkts))
			}
		}()
	}
	wg.Wait()
	prodDone.Store(true)
	ctlWg.Wait()
	pl.Barrier()

	c := pl.Counters()
	var want uint64
	for _, n := range sent {
		want += n
	}
	if c.Packets != want {
		t.Fatalf("processed %d packets, submitted %d", c.Packets, want)
	}
	if acc := c.Tx + c.Denied + c.Unrouted + c.Drops.Total(); acc != c.Packets {
		t.Fatalf("conservation violated under churn: %+v", c)
	}
	if c.EpochFlushes == 0 {
		t.Fatal("churn never triggered a shard epoch flush")
	}
}
