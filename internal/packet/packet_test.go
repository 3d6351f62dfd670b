package packet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIPStringAndParse(t *testing.T) {
	ip := MakeIP(10, 1, 2, 3)
	if got := ip.String(); got != "10.1.2.3" {
		t.Errorf("String = %q, want 10.1.2.3", got)
	}
	back, err := ParseIP("10.1.2.3")
	if err != nil || back != ip {
		t.Errorf("ParseIP = %v, %v; want %v", back, err, ip)
	}
	if _, err := ParseIP("not-an-ip"); err == nil {
		t.Error("ParseIP accepted garbage")
	}
	if _, err := ParseIP("::1"); err == nil {
		t.Error("ParseIP accepted IPv6")
	}
}

func TestIPMask(t *testing.T) {
	ip := MustParseIP("10.1.2.3")
	cases := []struct {
		prefix int
		want   string
	}{
		{32, "10.1.2.3"}, {24, "10.1.2.0"}, {16, "10.1.0.0"}, {8, "10.0.0.0"}, {0, "0.0.0.0"},
	}
	for _, c := range cases {
		if got := ip.Mask(c.prefix).String(); got != c.want {
			t.Errorf("Mask(%d) = %s, want %s", c.prefix, got, c.want)
		}
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if got := m.String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String = %q", got)
	}
}

func TestFlowKeyHashDistinguishesTenants(t *testing.T) {
	// Overlapping tenant IPs (requirement C1): same 5-tuple, different
	// tenant, must be distinct flows.
	a := FlowKey{Src: MustParseIP("192.168.0.1"), Dst: MustParseIP("192.168.0.2"),
		SrcPort: 5000, DstPort: 80, Proto: ProtoTCP, Tenant: 1}
	b := a
	b.Tenant = 2
	if a == b {
		t.Fatal("keys compare equal across tenants")
	}
	if a.FastHash() == b.FastHash() {
		t.Error("FastHash collides across tenants for identical 5-tuples")
	}
}

func TestAggregateKeys(t *testing.T) {
	k := FlowKey{Src: MustParseIP("10.0.0.1"), Dst: MustParseIP("10.0.0.2"),
		SrcPort: 31337, DstPort: 11211, Proto: ProtoTCP, Tenant: 3}
	eg := k.EgressAggregate()
	if eg.VMIP != k.Src || eg.Port != k.SrcPort || eg.Tenant != 3 || eg.Dir != Egress {
		t.Errorf("EgressAggregate = %v", eg)
	}
	in := k.IngressAggregate()
	if in.VMIP != k.Dst || in.Port != k.DstPort || in.Dir != Ingress {
		t.Errorf("IngressAggregate = %v", in)
	}
	// Two client flows to the same service share the ingress aggregate.
	k2 := k
	k2.SrcPort = 40000
	if k2.IngressAggregate() != in {
		t.Error("flows to the same service have different ingress aggregates")
	}
}

func roundTrip(t *testing.T, p *Packet) *Packet {
	t.Helper()
	b, err := p.AppendMarshal(nil)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(b) != p.WireLen() {
		t.Fatalf("Marshal produced %d bytes, WireLen says %d", len(b), p.WireLen())
	}
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return q
}

func TestTCPRoundTrip(t *testing.T) {
	p := NewTCP(9, MustParseIP("10.0.0.1"), MustParseIP("10.0.0.2"), 44000, 11211, 0)
	p.Payload = []byte("get key\r\n")
	p.TCP.Seq, p.TCP.Ack, p.TCP.Flags = 100, 200, FlagACK|FlagPSH
	p.Eth.Src = MAC{2, 0, 0, 0, 0, 1}
	p.Eth.Dst = MAC{2, 0, 0, 0, 0, 2}
	q := roundTrip(t, p)
	if q.IP.Src != p.IP.Src || q.IP.Dst != p.IP.Dst || q.IP.Proto != ProtoTCP {
		t.Errorf("IP mismatch: %+v", q.IP)
	}
	if q.TCP == nil || *q.TCP != *p.TCP {
		t.Errorf("TCP mismatch: %+v vs %+v", q.TCP, p.TCP)
	}
	if !bytes.Equal(q.Payload, p.Payload) || q.VirtualPayload != 0 {
		t.Errorf("payload mismatch: %q virtual=%d", q.Payload, q.VirtualPayload)
	}
	if q.Eth.Src != p.Eth.Src || q.Eth.Dst != p.Eth.Dst {
		t.Errorf("eth mismatch: %+v", q.Eth)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := NewUDP(4, MustParseIP("172.16.0.5"), MustParseIP("172.16.0.9"), 999, 53, 0)
	p.Payload = []byte{1, 2, 3, 4, 5} // odd length exercises checksum padding
	q := roundTrip(t, p)
	if q.UDP == nil || *q.UDP != *p.UDP {
		t.Errorf("UDP mismatch: %+v", q.UDP)
	}
	if !bytes.Equal(q.Payload, p.Payload) {
		t.Errorf("payload mismatch: %v", q.Payload)
	}
}

func TestVirtualPayloadRoundTrip(t *testing.T) {
	// A 32000-byte virtual payload survives the wire: marshal writes
	// zeros, unmarshal of a truncated capture reconstructs the length
	// from the IP total-length field.
	p := NewTCP(1, MustParseIP("10.0.0.1"), MustParseIP("10.0.0.2"), 1, 2, 32000)
	b, err := p.AppendMarshal(nil)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	wantLen := EthernetHeaderLen + IPv4HeaderLen + TCPHeaderLen + 32000
	if len(b) != wantLen {
		t.Fatalf("wire length %d, want %d", len(b), wantLen)
	}
	// Full-capture parse: payload is all zeros, so it may come back as
	// real bytes; total payload length must be preserved.
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if q.PayloadLen() != 32000 {
		t.Errorf("PayloadLen = %d, want 32000", q.PayloadLen())
	}
	// Truncated capture (headers only): virtual payload reconstructed.
	q2, err := Unmarshal(b[:EthernetHeaderLen+IPv4HeaderLen+TCPHeaderLen])
	if err != nil {
		t.Fatalf("Unmarshal truncated: %v", err)
	}
	if q2.VirtualPayload != 32000 || len(q2.Payload) != 0 {
		t.Errorf("truncated parse: virtual=%d real=%d", q2.VirtualPayload, len(q2.Payload))
	}
}

func TestVLANRoundTrip(t *testing.T) {
	p := NewTCP(2, MustParseIP("10.0.0.1"), MustParseIP("10.0.0.2"), 1, 2, 64)
	p.VLAN = &VLAN{PCP: 5, ID: 1234}
	q := roundTrip(t, p)
	if q.VLAN == nil || q.VLAN.ID != 1234 || q.VLAN.PCP != 5 {
		t.Errorf("VLAN mismatch: %+v", q.VLAN)
	}
	if q.WireLen() != p.WireLen() {
		t.Errorf("WireLen mismatch: %d vs %d", q.WireLen(), p.WireLen())
	}
}

func TestIPv4ChecksumValidated(t *testing.T) {
	p := NewUDP(1, MustParseIP("1.1.1.1"), MustParseIP("2.2.2.2"), 1, 2, 8)
	b, _ := p.AppendMarshal(nil)
	b[EthernetHeaderLen+12] ^= 0xff // corrupt src IP
	if _, err := Unmarshal(b); err == nil {
		t.Error("corrupted IPv4 header accepted")
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	p := NewTCP(1, MustParseIP("1.1.1.1"), MustParseIP("2.2.2.2"), 1, 2, 100)
	b, _ := p.AppendMarshal(nil)
	for _, n := range []int{0, 5, EthernetHeaderLen - 1, EthernetHeaderLen + 3, EthernetHeaderLen + IPv4HeaderLen - 1} {
		if _, err := Unmarshal(b[:n]); err == nil {
			t.Errorf("truncated frame of %d bytes accepted", n)
		}
	}
}

func TestUnmarshalRejectsUnknownEtherType(t *testing.T) {
	b := make([]byte, 64)
	b[12], b[13] = 0x86, 0xdd // IPv6
	if _, err := Unmarshal(b); err == nil {
		t.Error("IPv6 ethertype accepted")
	}
}

func TestGREHeaderRoundTrip(t *testing.T) {
	g := GRE{HasKey: true, Key: 0xdeadbeef, Proto: EtherTypeIPv4}
	b := make([]byte, g.Len())
	g.Marshal(b)
	got, n, err := UnmarshalGRE(b)
	if err != nil || n != 8 || got != g {
		t.Errorf("GRE round trip: %+v n=%d err=%v", got, n, err)
	}
	// Keyless.
	g2 := GRE{Proto: EtherTypeIPv4}
	b2 := make([]byte, g2.Len())
	g2.Marshal(b2)
	got2, n2, err := UnmarshalGRE(b2)
	if err != nil || n2 != 4 || got2 != g2 {
		t.Errorf("keyless GRE round trip: %+v n=%d err=%v", got2, n2, err)
	}
}

func TestVXLANHeaderRoundTrip(t *testing.T) {
	v := VXLAN{VNI: 0x123456}
	b := make([]byte, VXLANHeaderLen)
	v.Marshal(b)
	got, err := UnmarshalVXLAN(b)
	if err != nil || got != v {
		t.Errorf("VXLAN round trip: %+v err=%v", got, err)
	}
	var zero [VXLANHeaderLen]byte
	if _, err := UnmarshalVXLAN(zero[:]); err == nil {
		t.Error("VXLAN header without I flag accepted")
	}
}

func TestPacketKeyFromBuilders(t *testing.T) {
	k := FlowKey{Src: MustParseIP("10.0.0.1"), Dst: MustParseIP("10.0.0.2"),
		SrcPort: 31337, DstPort: 80, Proto: ProtoTCP, Tenant: 5}
	p := FromKey(k, 100)
	if p.Key() != k {
		t.Errorf("FromKey.Key = %v, want %v", p.Key(), k)
	}
	ku := k
	ku.Proto = ProtoUDP
	pu := FromKey(ku, 100)
	if pu.Key() != ku || pu.UDP == nil {
		t.Errorf("FromKey UDP: %v", pu.Key())
	}
}

// Property: any generated TCP packet survives a marshal/unmarshal round
// trip with key, lengths and header fields intact.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, tenant uint32, payload []byte, seq, ack uint32, virtual uint16) bool {
		p := NewTCP(TenantID(tenant), IP(src), IP(dst), sp, dp, 0)
		p.Payload = payload
		p.VirtualPayload = int(virtual)
		p.TCP.Seq, p.TCP.Ack = seq, ack
		if p.IPLen() > 0xffff {
			return true // oversized; Marshal correctly refuses elsewhere
		}
		b, err := p.AppendMarshal(nil)
		if err != nil {
			return false
		}
		q, err := Unmarshal(b)
		if err != nil {
			return false
		}
		q.Tenant = p.Tenant // tenant is pipeline metadata, not on the wire
		return q.Key() == p.Key() && q.PayloadLen() == p.PayloadLen() && *q.TCP == *p.TCP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOversizedPacketRejected(t *testing.T) {
	p := NewTCP(1, 1, 2, 1, 2, 70000)
	if _, err := p.AppendMarshal(nil); err == nil {
		t.Error("packet exceeding IPv4 total length accepted")
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SA" {
		t.Errorf("Flags.String = %q, want SA", got)
	}
	if got := TCPFlags(0).String(); got != "." {
		t.Errorf("zero flags = %q, want .", got)
	}
}

// checkKeyOrder is the contract of FlowKey.Compare: the rendering is the
// one fmt always produced, and keys order as their renderings do.
func checkKeyOrder(t *testing.T, a, b FlowKey) {
	t.Helper()
	for _, k := range []FlowKey{a, b} {
		want := fmt.Sprintf("t%d %d.%d.%d.%d:%d>%d.%d.%d.%d:%d/%d", k.Tenant,
			byte(k.Src>>24), byte(k.Src>>16), byte(k.Src>>8), byte(k.Src), k.SrcPort,
			byte(k.Dst>>24), byte(k.Dst>>16), byte(k.Dst>>8), byte(k.Dst), k.DstPort, k.Proto)
		if got := k.String(); got != want || len(got) > flowKeyBufLen {
			t.Fatalf("String() = %q (%d bytes), want %q within %d", got, len(got), want, flowKeyBufLen)
		}
		if c := k.Compare(k); c != 0 {
			t.Fatalf("Compare(k, k) = %d for %v", c, k)
		}
	}
	ab, ba := a.Compare(b), b.Compare(a)
	if want := strings.Compare(a.String(), b.String()); ab != want {
		t.Fatalf("Compare(%v, %v) = %d, strings.Compare of the renderings = %d", a, b, ab, want)
	}
	if ab != -ba {
		t.Fatalf("Compare not antisymmetric on %v, %v: %d vs %d", a, b, ab, ba)
	}
}

func TestFlowKeyCompareIsStringOrder(t *testing.T) {
	// The case the order is named for: decimal text, not numeric value.
	if t10, t2 := (FlowKey{Tenant: 10}), (FlowKey{Tenant: 2}); t10.Compare(t2) >= 0 {
		t.Fatalf("t10 must sort before t2 (string order), got %d", t10.Compare(t2))
	}
	// Fields drawn from small pools, with an occasional free value, so pairs
	// often agree on a long prefix and are decided deep in the rendering;
	// each pool holds values whose text is a prefix of another's (1/10/100,
	// 8/80/8080), where the byte after the field decides.
	rng := rand.New(rand.NewSource(1))
	pick := func(pool ...uint32) uint32 {
		if rng.Intn(8) == 0 {
			return rng.Uint32()
		}
		return pool[rng.Intn(len(pool))]
	}
	key := func() FlowKey {
		return FlowKey{
			Tenant:  TenantID(pick(0, 1, 2, 9, 10, 19, 20, 100, math.MaxUint32)),
			Src:     IP(pick(0, 0x0a000001, 0x0a000002, 0x0a00000a, 0x0a000064, 0x0a000100, 0x64000001, 0xffffffff)),
			Dst:     IP(pick(0, 0x0a000001, 0x0a000002, 0x0a00000a, 0x0a000064, 0x0a000100, 0x64000001, 0xffffffff)),
			SrcPort: uint16(pick(0, 1, 2, 8, 10, 80, 443, 8080, 11211, 65535)),
			DstPort: uint16(pick(0, 1, 2, 8, 10, 80, 443, 8080, 11211, 65535)),
			Proto:   byte(pick(0, uint32(ProtoTCP), uint32(ProtoUDP), 1, 2, 25, 4, 47, 255)),
		}
	}
	for i := 0; i < 20000; i++ {
		checkKeyOrder(t, key(), key())
	}
	err := quick.Check(func(a, b FlowKey) bool { checkKeyOrder(t, a, b); return true }, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFlowKeyCompareAllocatesNothing(t *testing.T) {
	a := FlowKey{Tenant: 12, Src: 0x0a000001, Dst: 0x0a000909, SrcPort: 40000, DstPort: 80, Proto: ProtoTCP}
	b := a
	b.DstPort = 81
	var sink int
	if n := testing.AllocsPerRun(1000, func() { sink += a.Compare(b) }); n != 0 {
		t.Fatalf("FlowKey.Compare allocates %v times per call, want 0", n)
	}
	_ = sink
}

// FuzzFlowKeyCompare runs the checkKeyOrder contract on fuzzed pairs.
func FuzzFlowKeyCompare(f *testing.F) {
	f.Add(uint32(1), uint32(0x0a000001), uint32(0x0a000002), uint16(80), uint16(8), byte(4),
		uint32(10), uint32(0x0a00000a), uint32(0x0a000014), uint16(8080), uint16(80), byte(47))
	f.Fuzz(func(t *testing.T, at, as, ad uint32, asp, adp uint16, ap byte, bt, bs, bd uint32, bsp, bdp uint16, bp byte) {
		a := FlowKey{Tenant: TenantID(at), Src: IP(as), Dst: IP(ad), SrcPort: asp, DstPort: adp, Proto: ap}
		b := FlowKey{Tenant: TenantID(bt), Src: IP(bs), Dst: IP(bd), SrcPort: bsp, DstPort: bdp, Proto: bp}
		checkKeyOrder(t, a, b)
		// A fuzzed pair almost always differs in the tenant already; move
		// one field at a time so each of the later ones gets to decide.
		for _, c := range []FlowKey{
			{b.Src, a.Dst, a.SrcPort, a.DstPort, a.Proto, a.Tenant},
			{a.Src, b.Dst, a.SrcPort, a.DstPort, a.Proto, a.Tenant},
			{a.Src, a.Dst, b.SrcPort, a.DstPort, a.Proto, a.Tenant},
			{a.Src, a.Dst, a.SrcPort, b.DstPort, a.Proto, a.Tenant},
			{a.Src, a.Dst, a.SrcPort, a.DstPort, b.Proto, a.Tenant},
		} {
			checkKeyOrder(t, a, c)
		}
	})
}
