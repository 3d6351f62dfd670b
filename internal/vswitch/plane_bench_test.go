package vswitch

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/packet"
	"repro/internal/rules"
)

// benchPlaneWorkload is one producer's pre-built packet set: resubmitting
// the same buffers every pass (with a Barrier in between) keeps the
// benchmark loop allocation-free, so ns/op measures the pipeline, not
// the harness.
type benchPlaneWorkload struct {
	keys []VMKey
	pkts []*packet.Packet
}

// newBenchPlane builds a standalone plane with a realistic table shape:
// 8 VMs with randomized port/QoS rule sets, 4 VXLAN peers, and a high
// (never-dropping) VIF limit so every packet crosses the whole pipeline
// — classify, megaflow, shape, encap — not a short-circuit of it.
func newBenchPlane(shards, producers, flowsPerProd int) (*ShardedPlane, []benchPlaneWorkload) {
	pl := NewShardedPlane(PlaneConfig{Shards: shards, Tunneling: true, ServerIP: srvA})
	rng := rand.New(rand.NewSource(7))
	const numVMs = 8
	var vmKeys []VMKey
	for i := 0; i < numVMs; i++ {
		key := VMKey{Tenant: 3, IP: packet.MakeIP(10, 0, 0, byte(1+i))}
		vmKeys = append(vmKeys, key)
		pl.AttachVM(key, planeRuleSet(rng, 3, key.IP))
		pl.SetVIFLimit(key, 100e9) // exercise shaping without drops
	}
	remote := func(i int) packet.IP { return packet.MakeIP(10, 0, 9, byte(i)) }
	for i := 0; i < 4; i++ {
		pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: remote(i), Remote: srvB})
	}
	loads := make([]benchPlaneWorkload, producers)
	for pr := range loads {
		prng := rand.New(rand.NewSource(int64(100 + pr)))
		w := benchPlaneWorkload{}
		for i := 0; i < flowsPerProd; i++ {
			src := vmKeys[prng.Intn(numVMs)]
			var dst packet.IP
			if prng.Intn(4) == 0 {
				dst = vmKeys[prng.Intn(numVMs)].IP // local delivery
			} else {
				dst = remote(prng.Intn(4)) // VXLAN encap
			}
			w.keys = append(w.keys, src)
			w.pkts = append(w.pkts, packet.NewTCP(3, src.IP, dst,
				uint16(40000+prng.Intn(512)), uint16(8000+prng.Intn(10)), 256))
		}
		loads[pr] = w
	}
	return pl, loads
}

// benchPipeline drives b.N packets through the whole pipeline and
// reports pps and pps/core. shards==1 is the inline deterministic mode
// (producer goroutine does the processing); shards>1 spawns one producer
// per shard against the worker ring. Producers barrier between passes
// before resubmitting their packet buffers, matching the reuse protocol
// real callers follow.
//
// pps/core divides by min(shards, GOMAXPROCS) — the number of cores the
// shard workers can actually occupy — so the number stays honest on
// runners with fewer cores than shards.
func benchPipeline(b *testing.B, shards int) {
	const flowsPerProd = 1024
	producers := shards
	pl, loads := newBenchPlane(shards, producers, flowsPerProd)
	defer pl.Close()

	// Warm: one full pass per producer installs exact-cache entries and
	// primes the encap pools before the clock starts.
	injs := make([]*PlaneInjector, producers)
	for pr := range injs {
		injs[pr] = pl.NewInjector()
		for i := range loads[pr].pkts {
			injs[pr].Egress(loads[pr].keys[i], loads[pr].pkts[i])
		}
		injs[pr].Flush()
	}
	pl.Barrier()

	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		share := b.N / producers
		if pr < b.N%producers {
			share++
		}
		if share == 0 {
			continue
		}
		pr, share := pr, share
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, inj := loads[pr], injs[pr]
			for sent := 0; sent < share; {
				n := len(w.pkts)
				if share-sent < n {
					n = share - sent
				}
				for i := 0; i < n; i++ {
					inj.Egress(w.keys[i], w.pkts[i])
				}
				inj.Flush()
				pl.Barrier() // packet buffers are about to be reused
				sent += n
			}
		}()
	}
	wg.Wait()
	b.StopTimer()

	cores := runtime.GOMAXPROCS(0)
	if shards < cores {
		cores = shards
	}
	pps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(pps, "pps")
	b.ReportMetric(pps/float64(cores), "pps/core")

	c := pl.Counters()
	if c.Packets == 0 || c.Tx+c.Denied+c.Unrouted+c.Drops.Total() != c.Packets {
		b.Fatalf("conservation violated in benchmark: %+v", c)
	}
}

// newflowsPlane is the shape of the benchmark's dp_newflows workload
// (bench/gen.go) at a chosen size: an inline plane with 8 shaped VMs of
// ~1k port-granular rules and 4 VXLAN peers, and one epoch's replay order
// over `tuples` fresh 5-tuples. Groups of four tuples differ in source port
// only, so one table walk installs the megaflow the other three hit; every
// tuple is sent twice, and every vector carries 16 new tuples and the 16
// the vector before it introduced: a quarter of the new ones walk the
// tables, the rest hit a megaflow, and the other half of the vector hits
// the exact cache.
func newflowsPlane(tuples int) (*ShardedPlane, []VMKey, []*packet.Packet) {
	pl := NewShardedPlane(PlaneConfig{Shards: 1, Tunneling: true, ServerIP: srvA})
	rng := rand.New(rand.NewSource(7))
	vms := make([]VMKey, 8)
	for i := range vms {
		vms[i] = VMKey{Tenant: 3, IP: packet.MakeIP(10, 0, 0, byte(1+i))}
		r := &rules.VMRules{Tenant: 3, VMIP: vms[i].IP}
		for j := 0; j < 1000; j++ {
			pat := rules.Pattern{Tenant: 3, DstPort: uint16(1024 + rng.Intn(8192))}
			if rng.Intn(3) == 0 {
				pat.Proto = packet.ProtoTCP
			}
			action := rules.Allow
			if rng.Intn(7) == 0 {
				action = rules.Deny
			}
			r.Security = append(r.Security, rules.SecurityRule{Pattern: pat, Action: action, Priority: 1 + rng.Intn(8)})
			if rng.Intn(10) == 0 {
				r.QoS = append(r.QoS, rules.QoSRule{Pattern: pat, Queue: rng.Intn(4), Priority: rng.Intn(4)})
			}
		}
		r.Security = append(r.Security, rules.SecurityRule{Pattern: rules.Pattern{Tenant: 3}, Action: rules.Allow})
		pl.AttachVM(vms[i], r)
		pl.SetVIFLimit(vms[i], 100e9)
	}
	for i := 0; i < 4; i++ {
		pl.SetTunnel(rules.TunnelMapping{Tenant: 3, VMIP: packet.MakeIP(10, 0, 9, byte(i)), Remote: srvB})
	}
	fresh := make([]*packet.Packet, tuples)
	for i := range fresh {
		g := i / 4 // the megaflow: (src, dst, dst port)
		dst := packet.MakeIP(10, 0, 9, byte(g/4%4))
		if g%4 == 3 {
			dst = vms[g/4%8].IP // one group in four is delivered locally
		}
		fresh[i] = packet.NewTCP(3, vms[g%8].IP, dst, uint16(30000+i%4), uint16(1024+g/16), 64)
	}
	const half = packet.DefaultVectorSize / 2
	var keys []VMKey
	var pkts []*packet.Packet
	for j, groups := 0, tuples/half; j < groups; j++ {
		prev := (j + groups - 1) % groups
		for _, p := range append(fresh[j*half:(j+1)*half:(j+1)*half], fresh[prev*half:(prev+1)*half]...) {
			keys, pkts = append(keys, VMKey{Tenant: 3, IP: p.IP.Src}), append(pkts, p)
		}
	}
	return pl, keys, pkts
}

// benchNewflows is dp_newflows as a `go test -bench` row: b.N packets in
// epochs of 32,768 fresh 5-tuples, each epoch behind one control-plane
// publish that flushes both caches.
func benchNewflows(b *testing.B) {
	pl, keys, pkts := newflowsPlane(ExactTableSlots)
	defer pl.Close()
	inj := pl.NewInjector()
	epoch := func(n int) {
		pl.Invalidate(rules.Pattern{Tenant: 3})
		for i := 0; i < n; i++ {
			inj.Egress(keys[i], pkts[i])
		}
		inj.Flush()
	}
	epoch(len(pkts)) // size the tables, make the buckets
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; sent += len(pkts) {
		epoch(min(len(pkts), b.N-sent))
	}
	b.StopTimer()
	c := pl.Counters()
	if c.Tx+c.Denied+c.Unrouted+c.Drops.Total() != c.Packets || c.Tx == 0 {
		b.Fatalf("conservation violated in benchmark: %+v", c)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

// BenchmarkPipeline measures whole-pipeline forwarding rate. pps-per-core
// is the headline single-core number (inline mode, one goroutine);
// shards={1,2,4,8} is the scaling curve; on a single-core runner it
// cannot rise, and multi-core scaling is unmeasured: no ≥4-core
// recording exists. newflows is the miss path's
// row: every flow new, the caches flushed every 65,536 packets. (key=value
// sub-names, matching BenchmarkTupleSpaceScaling: a trailing -N is the
// GOMAXPROCS suffix in the benchmark text format and would be stripped.)
func BenchmarkPipeline(b *testing.B) {
	b.Run("pps-per-core", func(b *testing.B) { benchPipeline(b, 1) })
	b.Run("newflows", benchNewflows)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { benchPipeline(b, n) })
	}
}
