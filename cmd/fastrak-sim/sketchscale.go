package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/packet"
	"repro/internal/sketch"
)

// playSketchScale is the sketch-scale row: instead of simulating a rack,
// it measures the accounting subsystem itself at a flow count no exact
// per-flow table should be asked to carry. A heavy-tailed synthetic
// stream of 10^6 distinct flows is fed through per-shard count-min +
// space-saving sketches on the wall clock and the shards merge into one
// top-k demand report.
func playSketchScale(w io.Writer, p params) error {
	const (
		flows    = 1_000_000
		shards   = 4
		topK     = 10_000
		services = 10_000
	)
	obsPerShard := flows // 4 shards -> 4 observations per flow on average

	cfg := sketch.Config{TopK: topK, Width: 1 << 15, Depth: 4, Seed: uint64(p.seed), Aggregate: true}
	acct := sketch.New(cfg, shards)

	fmt.Fprintf(w, "sketch scale mode: %d flows, %d services, %d shards, top-k=%d, cm=%dx%d\n",
		flows, services, shards, topK, 1<<15, 4)

	// Phase 1: streaming accrual. Each shard owns a private rng and a
	// zipf-distributed flow popularity, so a small set of services
	// dominates — the regime top-k accounting exists for. Shards are
	// single-writer; feeding them concurrently is the deployment shape.
	start := time.Now()
	done := make(chan struct{}, shards)
	for s := 0; s < shards; s++ {
		sh := acct.Shard(s)
		rng := rand.New(rand.NewSource(p.seed + int64(s)))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(flows-1))
		go func() {
			for i := 0; i < obsPerShard; i++ {
				rank := zipf.Uint64()
				k := packet.FlowKey{
					Tenant:  packet.TenantID(1 + rank%16),
					Src:     packet.IP(0x0a000000 + uint32(rank)),
					Dst:     packet.IP(0x0afe0000 + uint32(rank%services)),
					SrcPort: uint16(32768 + rank%16384),
					DstPort: uint16(8000 + rank%services%64),
					Proto:   packet.ProtoTCP,
				}
				sh.Observe(k, 1, 1500)
			}
			done <- struct{}{}
		}()
	}
	for s := 0; s < shards; s++ {
		<-done
	}
	feed := time.Since(start)
	totalObs := obsPerShard * shards
	fmt.Fprintf(w, "accrual: %d observations in %v (%.1f M updates/s across %d shards)\n",
		totalObs, feed.Round(time.Millisecond), float64(totalObs)/feed.Seconds()/1e6, shards)

	// Memory: the whole accountant vs what an exact per-flow table would
	// cost (map entry + key + two counters, ~150 B per live flow). The
	// sketch is O(k + width*depth), independent of the flow count.
	exactBytes := flows * 150
	fmt.Fprintf(w, "memory: sketch=%d KiB vs exact-table est. %d KiB (%.1fx smaller, flow-count independent)\n",
		acct.MemoryBytes()/1024, exactBytes/1024, float64(exactBytes)/float64(acct.MemoryBytes()))

	// Phase 2: merge and report (the quiesced control-plane read).
	start = time.Now()
	report := acct.Report()
	fmt.Fprintf(w, "merge+report: %d heavy-hitter patterns (floor=%d) in %v\n",
		len(report), acct.Floor(), time.Since(start).Round(time.Microsecond))

	// The ranking the TOR would act on.
	top := report
	if len(top) > 5 {
		top = top[:5]
	}
	sort.SliceStable(top, func(i, j int) bool { return top[i].Pkts > top[j].Pkts })
	fmt.Fprintln(w, "\nhottest aggregates (merged top-k):")
	for _, pc := range top {
		fmt.Fprintf(w, "  %-40s pkts=%-10d bytes=%d (err<=%d)\n", pc.Pattern, pc.Pkts, pc.Bytes, pc.Err)
	}
	return nil
}
