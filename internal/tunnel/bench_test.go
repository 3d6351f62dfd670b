package tunnel

import (
	"testing"

	"repro/internal/packet"
)

var (
	benchSrc = packet.MustParseIP("192.168.1.10")
	benchDst = packet.MustParseIP("192.168.1.11")
)

// seedStyleVXLANEncap reproduces the seed's allocation pattern — marshal
// the inner to a fresh buffer, allocate a header buffer, copy, allocate
// the outer packet and its UDP header — as the baseline for the pooled
// encap's ≥80% allocation-reduction acceptance benchmark.
func seedStyleVXLANEncap(src, dst packet.IP, tenant packet.TenantID, inner *packet.Packet) (*packet.Packet, error) {
	innerBytes, err := inner.MarshalTruncated()
	if err != nil {
		return nil, err
	}
	var v packet.VXLAN
	v.VNI = uint32(tenant) & 0xffffff
	payload := make([]byte, packet.VXLANHeaderLen+len(innerBytes))
	v.Marshal(payload)
	copy(payload[packet.VXLANHeaderLen:], innerBytes)
	return &packet.Packet{
		IP:             packet.IPv4{TTL: 64, Proto: packet.ProtoUDP, Src: src, Dst: dst},
		UDP:            &packet.UDPHeader{SrcPort: uint16(inner.Key().FastHash()&0x3fff) + 49152, DstPort: packet.VXLANPort},
		Payload:        payload,
		VirtualPayload: inner.VirtualPayload,
		Tenant:         tenant,
		Meta:           inner.Meta,
	}, nil
}

func BenchmarkVXLANEncap(b *testing.B) {
	inner := packet.NewTCP(7, packet.MustParseIP("10.0.0.1"), packet.MustParseIP("10.0.0.2"), 40000, 11211, 600)

	b.Run("seedstyle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := seedStyleVXLANEncap(benchSrc, benchDst, 7, inner); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		hash := inner.Key().FastHash()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			outer, err := VXLANEncapHashed(benchSrc, benchDst, 7, inner, hash)
			if err != nil {
				b.Fatal(err)
			}
			Release(outer)
		}
	})
	// The two ways to the wire bytes: the pooled outer marshaled, and the
	// single-pass writer the sharded plane calls. 64 real payload bytes,
	// so the outer UDP checksum has a body to sum.
	inner = packet.NewTCP(7, packet.MustParseIP("10.0.0.1"), packet.MustParseIP("10.0.0.2"), 40000, 11211, 0)
	inner.Payload = make([]byte, 64)
	wire := make([]byte, 0, 2048)
	hash := inner.Key().FastHash()
	b.Run("pooled+marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			outer, err := VXLANEncapHashed(benchSrc, benchDst, 7, inner, hash)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := outer.AppendMarshalTruncated(wire); err != nil {
				b.Fatal(err)
			}
			Release(outer)
		}
	})
	b.Run("frame", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AppendVXLANFrame(wire, benchSrc, benchDst, 7, inner, hash); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGREEncapDecap(b *testing.B) {
	inner := packet.NewTCP(7, packet.MustParseIP("10.0.0.1"), packet.MustParseIP("10.0.0.2"), 40000, 11211, 600)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		outer, err := GREEncap(benchSrc, benchDst, 7, inner)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := GREDecap(outer); err != nil {
			b.Fatal(err)
		}
		Release(outer)
	}
}
