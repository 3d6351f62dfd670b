package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/vswitch"
)

// playThroughput drives the sharded batch data plane flat out for
// p.horizon of wall clock: the plane rows. Unlike the virtual-time rows,
// it measures the real machine: shards workers (1 = the inline
// deterministic configuration), one producer goroutine per shard, each
// replaying a private set of pre-built flows through classify → megaflow
// → shape → encap until the deadline. Producers barrier between passes so
// packet buffers are never resubmitted while a prior vector still holds
// them.
func playThroughput(w io.Writer, p params, shards int) error {
	const (
		tenants       = 4
		vmsPerTenant  = 8
		flowsPerProd  = 1024
		rulesPerVM    = 8
		remoteServers = 4
	)

	serverIP := packet.MustParseIP("192.168.1.1")
	pl := vswitch.NewShardedPlane(vswitch.PlaneConfig{
		Shards:    shards,
		Tunneling: true,
		ServerIP:  serverIP,
	})
	defer pl.Close()

	// Rule state: every tenant VM carries a small ACL (specific allows on
	// the service ports plus a default tenant-wide allow), so the slow
	// path walks real tuple spaces and megaflows carry real masks.
	var locals []vswitch.VMKey
	for t := 0; t < tenants; t++ {
		tenant := packet.TenantID(10 + t)
		for v := 0; v < vmsPerTenant; v++ {
			ip := packet.MakeIP(10, byte(t), 0, byte(10+v))
			key := vswitch.VMKey{Tenant: tenant, IP: ip}
			r := &rules.VMRules{Tenant: tenant, VMIP: ip}
			for i := 0; i < rulesPerVM; i++ {
				r.Security = append(r.Security, rules.SecurityRule{
					Pattern:  rules.Pattern{Tenant: tenant, DstPort: uint16(9000 + i)},
					Action:   rules.Allow,
					Priority: 10,
				})
			}
			r.Security = append(r.Security, rules.SecurityRule{
				Pattern:  rules.Pattern{Tenant: tenant},
				Action:   rules.Allow,
				Priority: 0,
			})
			pl.AttachVM(key, r)
			locals = append(locals, key)
		}
		// Remote peers reachable through VXLAN tunnels.
		for s := 0; s < remoteServers; s++ {
			remote := packet.MakeIP(192, 168, 1, byte(2+s))
			for v := 0; v < vmsPerTenant; v++ {
				dst := packet.MakeIP(10, byte(t), 1, byte(10+v+s*vmsPerTenant))
				pl.SetTunnel(rules.TunnelMapping{Tenant: tenant, VMIP: dst, Remote: remote})
			}
		}
	}

	producers := shards
	type prodSet struct {
		keys []vswitch.VMKey
		pkts []*packet.Packet
	}
	sets := make([]prodSet, producers)
	for pr := 0; pr < producers; pr++ {
		rng := rand.New(rand.NewSource(p.seed + int64(pr)))
		set := prodSet{}
		for i := 0; i < flowsPerProd; i++ {
			src := locals[rng.Intn(len(locals))]
			t := int(src.Tenant) - 10
			dst := packet.MakeIP(10, byte(t), 1, byte(10+rng.Intn(vmsPerTenant*remoteServers)))
			pkt := packet.NewTCP(src.Tenant, src.IP, dst, uint16(40000+i), uint16(9000+rng.Intn(rulesPerVM)), 256)
			set.keys = append(set.keys, src)
			set.pkts = append(set.pkts, pkt)
		}
		sets[pr] = set
	}

	fmt.Fprintf(w, "throughput mode: %d shard(s), %d producer(s), %d flows each, GOMAXPROCS=%d, %v wall clock\n",
		shards, producers, flowsPerProd, runtime.GOMAXPROCS(0), p.horizon)

	deadline := time.Now().Add(p.horizon)
	done := make(chan int, producers)
	start := time.Now()
	for pr := 0; pr < producers; pr++ {
		set := sets[pr]
		go func() {
			inj := pl.NewInjector()
			passes := 0
			for time.Now().Before(deadline) {
				for i, pkt := range set.pkts {
					inj.Egress(set.keys[i], pkt)
				}
				inj.Flush()
				// Barrier before replaying the same packet buffers: a
				// queued vector may still reference them.
				pl.Barrier()
				passes++
			}
			done <- passes
		}()
	}
	passes := 0
	for pr := 0; pr < producers; pr++ {
		passes += <-done
	}
	elapsed := time.Since(start)
	pl.Barrier()

	c := pl.Counters()
	pps := float64(c.Packets) / elapsed.Seconds()
	fmt.Fprintf(w, "\nprocessed %d packets in %d vectors over %v (%d passes)\n", c.Packets, c.Vectors, elapsed.Round(time.Millisecond), passes)
	fmt.Fprintf(w, "throughput: %.2f Mpps total, %.2f Mpps per shard, %.2f Mpps per core (GOMAXPROCS)\n",
		pps/1e6, pps/1e6/float64(shards), pps/1e6/float64(runtime.GOMAXPROCS(0)))
	fmt.Fprintf(w, "outcomes: tx=%d (local=%d) denied=%d unrouted=%d drops=%d epoch-flushes=%d\n",
		c.Tx, c.LocalTx, c.Denied, c.Unrouted, c.Drops.Total(), c.EpochFlushes)
	fmt.Fprintf(w, "megaflow: hits=%d misses=%d installs=%d (hit rate %.4f)\n",
		c.Megaflow.Hits, c.Megaflow.Misses, c.Megaflow.Installs, c.Megaflow.HitRate())
	accounted := c.Tx + c.Denied + c.Unrouted + c.Drops.Total()
	fmt.Fprintf(w, "conservation: packets=%d accounted=%d (%v)\n", c.Packets, accounted, c.Packets == accounted)
	return nil
}
