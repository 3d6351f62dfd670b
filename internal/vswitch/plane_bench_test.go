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

// BenchmarkPipeline measures whole-pipeline forwarding rate. pps-per-core
// is the headline single-core number (inline mode, one goroutine);
// shards={1,2,4,8} is the curve recorded in BENCH_BASELINE — on a
// single-core runner, where it cannot rise; multi-core scaling is
// unmeasured: no ≥4-core recording exists. (key=value
// sub-names, matching BenchmarkTupleSpaceScaling: a trailing -N is the
// GOMAXPROCS suffix in the benchmark text format and would be stripped.)
func BenchmarkPipeline(b *testing.B) {
	b.Run("pps-per-core", func(b *testing.B) { benchPipeline(b, 1) })
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) { benchPipeline(b, n) })
	}
}
