// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B benchmark per experiment (see DESIGN.md's
// per-experiment index), plus ablations of the design choices and
// microbenchmarks of the hot data-path structures.
//
// Each experiment bench runs the full scenario per iteration and reports
// the figure's headline metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's numbers alongside the harness's own cost.
package fastrak

import (
	"math"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/flowplacer"
	"repro/internal/model"
	"repro/internal/packet"
	"repro/internal/ratelimit"
	"repro/internal/rules"
)

func init() {
	// Benchmarks trade window length for wall-clock time; the shapes
	// are stable well below these windows (the emulation is
	// deterministic).
	experiments.MicroDuration = 150 * time.Millisecond
	experiments.Table1Duration = 150 * time.Millisecond
	experiments.EvalScale = 500
}

// ---- Figure 3: baseline network performance ----

func benchMicroNet(b *testing.B, pc experiments.PathConfig, size int) {
	b.Helper()
	var last experiments.MicroResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunMicroNetwork(pc, size)
	}
	b.ReportMetric(last.ThroughputGbps, "Gbps")
	b.ReportMetric(float64(last.AvgLatency.Microseconds()), "avg-lat-µs")
	b.ReportMetric(float64(last.P99Latency.Microseconds()), "p99-lat-µs")
	b.ReportMetric(last.BurstTPS, "burst-TPS")
	b.ReportMetric(float64(last.BurstLatency.Microseconds()), "burst-lat-µs")
}

func BenchmarkFig3aThroughput(b *testing.B) {
	for _, pc := range experiments.Configs3 {
		for _, size := range model.AppDataSizes {
			b.Run(string(pc)+"/"+sizeName(size), func(b *testing.B) { benchMicroNet(b, pc, size) })
		}
	}
}

// Figures 3(b)–3(e) share the grid with 3(a); the per-row metrics above
// carry all five panels. Dedicated entry points keep the DESIGN.md index
// one-to-one with bench targets.

func BenchmarkFig3bAvgLatency(b *testing.B)   { benchMicroNet(b, experiments.ConfigOVS, 64) }
func BenchmarkFig3cP99Latency(b *testing.B)   { benchMicroNet(b, experiments.ConfigSRIOV, 64) }
func BenchmarkFig3dBurstTPS(b *testing.B)     { benchMicroNet(b, experiments.ConfigOVS, 600) }
func BenchmarkFig3eBurstLatency(b *testing.B) { benchMicroNet(b, experiments.ConfigSRIOV, 600) }

// ---- Figure 4: CPU overheads ----

func benchMicroCPU(b *testing.B, pc experiments.PathConfig, size int) {
	b.Helper()
	var last experiments.CPUResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunMicroCPU(pc, size)
	}
	b.ReportMetric(last.CPUs, "CPUs")
	b.ReportMetric(last.ThroughputGbps, "Gbps")
	if last.ThroughputGbps > 0 {
		b.ReportMetric(last.CPUs/last.ThroughputGbps, "CPUs/Gbps")
	}
}

func BenchmarkFig4aBaselineCPU(b *testing.B) {
	for _, pc := range experiments.Configs3 {
		for _, size := range []int{64, 1448, 32000} {
			b.Run(string(pc)+"/"+sizeName(size), func(b *testing.B) { benchMicroCPU(b, pc, size) })
		}
	}
}

func BenchmarkFig4bCombinedCPU(b *testing.B) {
	for _, pc := range experiments.Configs5 {
		for _, size := range []int{64, 1448} {
			b.Run(string(pc)+"/"+sizeName(size), func(b *testing.B) { benchMicroCPU(b, pc, size) })
		}
	}
}

// ---- Figure 5: combined network performance ----

func BenchmarkFig5Combined(b *testing.B) {
	for _, pc := range experiments.Configs5 {
		for _, size := range []int{64, 600, 1448} {
			b.Run(string(pc)+"/"+sizeName(size), func(b *testing.B) { benchMicroNet(b, pc, size) })
		}
	}
}

// ---- Table 1: memcached TPS ----

func benchTable1(b *testing.B, background bool) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(background)
	}
	b.ReportMetric(rows[0].TPS, "VIF-TPS")
	b.ReportMetric(rows[1].TPS, "VF-TPS")
	b.ReportMetric(rows[1].TPS/rows[0].TPS, "VF/VIF")
	b.ReportMetric(float64(rows[0].MeanLatency.Microseconds()), "VIF-lat-µs")
	b.ReportMetric(float64(rows[1].MeanLatency.Microseconds()), "VF-lat-µs")
}

func BenchmarkTable1aMemcachedTPS(b *testing.B)           { benchTable1(b, false) }
func BenchmarkTable1bMemcachedTPSBackground(b *testing.B) { benchTable1(b, true) }

// ---- Tables 2/3: finish times ----

func BenchmarkTable2FinishTimes(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2()
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanFinish.Seconds()*1000, "finish-ms-vif"+itoa(r.PercentVIF))
	}
	b.ReportMetric(float64(rows[0].MeanFinish)/float64(rows[4].MeanFinish), "vif100/vif0")
}

func BenchmarkTable3FinishTimesBackground(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3()
	}
	b.ReportMetric(rows[0].MeanFinish.Seconds()*1000, "VIF-finish-ms")
	b.ReportMetric(rows[1].MeanFinish.Seconds()*1000, "VF-finish-ms")
	b.ReportMetric(float64(rows[0].MeanFinish)/float64(rows[1].MeanFinish), "VIF/VF")
}

// ---- Table 4: FasTrak dynamic migration ----

func BenchmarkTable4FasTrakMigration(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4()
	}
	b.ReportMetric(rows[0].MeanFinish.Seconds()*1000, "static-finish-ms")
	b.ReportMetric(rows[1].MeanFinish.Seconds()*1000, "fastrak-finish-ms")
	b.ReportMetric(float64(rows[0].MeanFinish)/float64(rows[1].MeanFinish), "speedup")
	b.ReportMetric(rows[1].OffloadedAt.Seconds()*1000, "offloaded-at-ms")
}

// ---- Figure 12: TCP across flow migration ----

func BenchmarkFig12MigrationTrace(b *testing.B) {
	var res experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		res, _ = experiments.Fig12Traced(20*time.Millisecond, nil)
	}
	b.ReportMetric(float64(res.Stats.FastRetransmits), "fast-retx")
	b.ReportMetric(float64(res.Stats.Timeouts), "timeouts")
	b.ReportMetric(float64(res.Stats.DelayedAcks), "delayed-acks")
	b.ReportMetric(res.Finished.Seconds()*1000, "finish-ms")
}

// ---- §6.2.2: controller overhead ----

func BenchmarkControllerOverhead(b *testing.B) {
	var res experiments.ControllerCostResult
	for i := 0; i < b.N; i++ {
		res = experiments.ControllerCost(2 * time.Second)
	}
	b.ReportMetric(float64(res.Messages)/float64(res.ControlIntervals), "msgs/interval")
	b.ReportMetric(float64(res.MessageBytes)/float64(res.ControlIntervals), "bytes/interval")
	b.ReportMetric(float64(res.Samples), "samples")
}

// ---- Ablations (DESIGN.md) ----

func BenchmarkAblationScoreFunction(b *testing.B) {
	var pps, bps experiments.ScoreAblationResult
	for i := 0; i < b.N; i++ {
		pps, bps = experiments.AblationScoreFunction()
	}
	b.ReportMetric(float64(pps.MiceLatency.Microseconds()), "pps-policy-lat-µs")
	b.ReportMetric(float64(bps.MiceLatency.Microseconds()), "bps-policy-lat-µs")
	b.ReportMetric(pps.MiceTPS, "pps-policy-TPS")
	b.ReportMetric(bps.MiceTPS, "bps-policy-TPS")
}

func BenchmarkAblationTCAMCapacity(b *testing.B) {
	var rows []experiments.TCAMAblationResult
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationTCAMCapacity([]int{2, 4, 8, 16, 32})
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.MeanLatency.Microseconds()), "lat-µs-cap"+itoa(r.Capacity))
	}
}

func BenchmarkAblationControlInterval(b *testing.B) {
	var rows []experiments.IntervalAblationResult
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationControlInterval([]time.Duration{
			10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond,
		})
	}
	for _, r := range rows {
		b.ReportMetric(r.ReactionTime.Seconds()*1000, "react-ms-T"+r.Epoch.String())
	}
}

func BenchmarkAblationFPSOverflow(b *testing.B) {
	var rows []experiments.OverflowAblationResult
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationFPSOverflow([]float64{0, 0.05, 0.15})
	}
	for _, r := range rows {
		b.ReportMetric(r.ThrottledFraction, "throttled-O"+ftoa(r.OverflowFraction))
	}
}

func BenchmarkAblationAggregation(b *testing.B) {
	var agg, exact experiments.AggregationAblationResult
	for i := 0; i < b.N; i++ {
		agg, exact = experiments.AblationAggregation()
	}
	b.ReportMetric(float64(agg.HardwareRules), "hw-rules-aggregated")
	b.ReportMetric(float64(exact.HardwareRules), "hw-rules-exact")
	b.ReportMetric(float64(agg.PlacerRules), "placer-rules-aggregated")
	b.ReportMetric(float64(exact.PlacerRules), "placer-rules-exact")
}

// ---- Data-path hot structures ----

func BenchmarkFlowKeyFastHash(b *testing.B) {
	k := packet.FlowKey{Src: 0x0a000001, Dst: 0x0a000002, SrcPort: 40000, DstPort: 11211,
		Proto: packet.ProtoTCP, Tenant: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.SrcPort = uint16(i)
		_ = k.FastHash()
	}
}

func BenchmarkExactTableLookup(b *testing.B) {
	tbl := rules.NewExactTable[int]()
	keys := make([]packet.FlowKey, 10000)
	for i := range keys {
		keys[i] = packet.FlowKey{Src: packet.IP(i), Dst: 2, SrcPort: uint16(i), DstPort: 80,
			Proto: packet.ProtoTCP, Tenant: 1}
		tbl.Install(keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tbl.Lookup(keys[i%len(keys)])
	}
}

func BenchmarkTCAMLookup(b *testing.B) {
	tc := rules.NewTCAM(1000)
	for i := 0; i < 250; i++ { // Amazon VPC's per-VM rule scale
		k := packet.FlowKey{Src: packet.IP(i), Dst: 2, SrcPort: uint16(i), DstPort: 80,
			Proto: packet.ProtoTCP, Tenant: 1}
		if err := tc.Insert(&rules.TCAMEntry{Pattern: rules.ExactPattern(k), Priority: i, Action: rules.Allow}); err != nil {
			b.Fatal(err)
		}
	}
	probe := packet.FlowKey{Src: 125, Dst: 2, SrcPort: 125, DstPort: 80, Proto: packet.ProtoTCP, Tenant: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tc.Lookup(probe)
	}
}

func BenchmarkFlowPlacerPlace(b *testing.B) {
	pl := flowplacer.New()
	p := packet.NewTCP(7, 1, 2, 40000, 11211, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TCP.SrcPort = uint16(i % 512)
		_ = pl.Place(p, time.Duration(i))
	}
}

func BenchmarkPacketMarshal(b *testing.B) {
	p := packet.NewTCP(7, 1, 2, 40000, 11211, 0)
	p.Payload = make([]byte, 600)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.AppendMarshal(make([]byte, 0, p.WireLen())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPacketUnmarshal(b *testing.B) {
	p := packet.NewTCP(7, 1, 2, 40000, 11211, 0)
	p.Payload = make([]byte, 600)
	wire, err := p.AppendMarshal(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTokenBucketReserve(b *testing.B) {
	tb := ratelimit.NewTokenBucket(10e9, 120000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = tb.ReserveLimit(time.Duration(i)*time.Microsecond, 1500, math.MaxInt64)
	}
}

// ---- helpers ----

func sizeName(n int) string { return itoa(n) + "B" }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	return itoa(int(f * 100))
}

// ---- Extensions: disk-bound shuffle and 10k-rule steady state ----

func BenchmarkShuffleExpressLane(b *testing.B) {
	var rows []experiments.ShuffleResult
	for i := 0; i < b.N; i++ {
		rows = experiments.ShuffleExperiment()
	}
	b.ReportMetric(rows[0].FinishedAt.Seconds()*1000, "VIF-finish-ms")
	b.ReportMetric(rows[1].FinishedAt.Seconds()*1000, "VF-finish-ms")
}

func BenchmarkTenKRulesSteadyState(b *testing.B) {
	var base, sec experiments.MicroResult
	for i := 0; i < b.N; i++ {
		base = experiments.RunMicroNetwork(experiments.ConfigOVS, 600)
		sec = experiments.RunMicroNetwork(experiments.ConfigOVSSec, 600)
	}
	b.ReportMetric(base.BurstTPS, "baseline-TPS")
	b.ReportMetric(sec.BurstTPS, "10k-rules-TPS")
}
