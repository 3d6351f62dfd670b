package sketch

import (
	"testing"

	"repro/internal/packet"
)

// BenchmarkCountMinUpdate measures the raw conservative-update cost —
// the per-packet price of sketch accounting. Steady state must be
// 0 allocs/op (the structure never grows after construction).
func BenchmarkCountMinUpdate(b *testing.B) {
	cm := NewCountMin(2048, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Update(uint64(i)&1023, 1)
	}
}

// BenchmarkSpaceSavingUpdate measures top-k maintenance with a working
// set larger than k (constant takeover pressure) — the worst case.
func BenchmarkSpaceSavingUpdate(b *testing.B) {
	ss := NewSpaceSaving[int](1024, intLess)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss.Update(i&4095, 1, 64)
	}
}

// BenchmarkShardObserve is the end-to-end data-path hook cost: one packet
// accounted into both aggregate patterns across two count-min sketches
// and the top-k. This is the number that gates enabling -sketch on the
// hot path.
func BenchmarkShardObserve(b *testing.B) {
	s := NewShard(Config{TopK: 1024, Width: 2048, Depth: 4, Aggregate: true})
	keys := make([]packet.FlowKey, 512)
	for i := range keys {
		keys[i] = packet.FlowKey{
			Tenant:  packet.TenantID(1 + i%8),
			Src:     packet.IP(0x0a000000 + uint32(i)),
			Dst:     packet.IP(0x0a800000 + uint32(i%32)),
			SrcPort: uint16(10000 + i),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
		}
	}
	// Warm: monitor every pattern so steady state has no admissions.
	for _, k := range keys {
		s.Observe(k, 1, 1500)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(keys[i&511], 1, 1500)
	}
}

// BenchmarkMerge4Shards is the report-time cost: clone + merge four
// production-sized shard sketches.
func BenchmarkMerge4Shards(b *testing.B) {
	a := New(Config{TopK: 1024, Width: 2048, Depth: 4, Aggregate: true}, 4)
	for i := 0; i < 4096; i++ {
		k := packet.FlowKey{
			Tenant: packet.TenantID(1 + i%8), Src: packet.IP(uint32(i)),
			Dst: packet.IP(uint32(i % 64)), SrcPort: uint16(i), DstPort: 80,
			Proto: packet.ProtoTCP,
		}
		a.Shard(i%4).Observe(k, 1, 1500)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Merged()
	}
}
