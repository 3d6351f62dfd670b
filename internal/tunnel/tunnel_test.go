package tunnel

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/packet"
)

var (
	torA = packet.MustParseIP("192.168.100.1")
	torB = packet.MustParseIP("192.168.100.2")
	srvA = packet.MustParseIP("192.168.1.10")
	srvB = packet.MustParseIP("192.168.2.20")
)

func innerPacket() *packet.Packet {
	p := packet.NewTCP(77, packet.MustParseIP("10.0.0.1"), packet.MustParseIP("10.0.0.2"), 40000, 11211, 0)
	p.Payload = []byte("VALUE k 0 5\r\nhello\r\nEND\r\n")
	p.TCP.Seq = 1234
	return p
}

func TestGRERoundTrip(t *testing.T) {
	in := innerPacket()
	outer, err := GREEncap(torA, torB, in.Tenant, in)
	if err != nil {
		t.Fatal(err)
	}
	if outer.IP.Proto != packet.ProtoGRE || outer.IP.Src != torA || outer.IP.Dst != torB {
		t.Errorf("outer header: %+v", outer.IP)
	}
	// The outer packet must itself survive the wire.
	wire, err := outer.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	outer2, err := packet.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, tenant, err := GREDecap(outer2)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != 77 {
		t.Errorf("tenant from GRE key = %d, want 77", tenant)
	}
	if got.IP != in.IP {
		t.Errorf("inner IP mismatch: %+v vs %+v", got.IP, in.IP)
	}
	if *got.TCP != *in.TCP {
		t.Errorf("inner TCP mismatch: %+v", got.TCP)
	}
	if !bytes.Equal(got.Payload, in.Payload) {
		t.Errorf("inner payload mismatch: %q", got.Payload)
	}
}

func TestGREVirtualPayloadStaysVirtual(t *testing.T) {
	in := packet.NewTCP(5, 1, 2, 10, 20, 32000)
	outer, err := GREEncap(torA, torB, 5, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(outer.Payload) > 200 {
		t.Errorf("encap materialized %d payload bytes; virtual bytes must stay virtual", len(outer.Payload))
	}
	if outer.PayloadLen() != packet.GREBaseHeaderLen+packet.GREKeyLen+in.IPLen() {
		t.Errorf("outer payload length %d does not account for inner", outer.PayloadLen())
	}
	got, _, err := GREDecap(outer)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadLen() != 32000 {
		t.Errorf("inner PayloadLen = %d after decap, want 32000", got.PayloadLen())
	}
}

func TestGREDecapRejectsNonGRE(t *testing.T) {
	p := packet.NewUDP(1, 1, 2, 10, 20, 8)
	if _, _, err := GREDecap(p); err == nil {
		t.Error("non-GRE packet decapped")
	}
}

func TestGREDecapRejectsKeyless(t *testing.T) {
	g := packet.GRE{Proto: packet.EtherTypeIPv4}
	payload := make([]byte, g.Len())
	g.Marshal(payload)
	outer := &packet.Packet{
		IP:      packet.IPv4{TTL: 64, Proto: packet.ProtoGRE, Src: torA, Dst: torB},
		Payload: payload,
	}
	if _, _, err := GREDecap(outer); err == nil {
		t.Error("keyless GRE accepted; tenant isolation requires the key")
	}
}

func TestVXLANRoundTrip(t *testing.T) {
	in := innerPacket()
	in.Eth.Src = packet.MAC{2, 0, 0, 0, 0, 1}
	in.Eth.Dst = packet.MAC{2, 0, 0, 0, 0, 2}
	outer, err := VXLANEncap(srvA, srvB, in.Tenant, in)
	if err != nil {
		t.Fatal(err)
	}
	if outer.UDP == nil || outer.UDP.DstPort != packet.VXLANPort {
		t.Fatalf("outer not VXLAN UDP: %+v", outer.UDP)
	}
	wire, err := outer.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	outer2, err := packet.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, tenant, err := VXLANDecap(outer2)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != 77 {
		t.Errorf("tenant from VNI = %d", tenant)
	}
	if got.Eth.Dst != in.Eth.Dst {
		t.Errorf("inner Ethernet lost: %+v", got.Eth)
	}
	if !bytes.Equal(got.Payload, in.Payload) {
		t.Errorf("inner payload mismatch")
	}
}

func TestVXLANSourcePortEntropy(t *testing.T) {
	a := packet.NewTCP(1, 1, 2, 1000, 80, 0)
	b := packet.NewTCP(1, 1, 2, 2000, 80, 0)
	oa, _ := VXLANEncap(srvA, srvB, 1, a)
	ob, _ := VXLANEncap(srvA, srvB, 1, b)
	if oa.UDP.SrcPort == ob.UDP.SrcPort {
		t.Error("different flows share VXLAN source port (no ECMP entropy)")
	}
	if oa.UDP.SrcPort < 49152 {
		t.Errorf("source port %d below ephemeral range", oa.UDP.SrcPort)
	}
}

func TestVXLANDecapRejectsNonVXLAN(t *testing.T) {
	p := packet.NewUDP(1, 1, 2, 10, 53, 8)
	if _, _, err := VXLANDecap(p); err == nil {
		t.Error("non-VXLAN packet decapped")
	}
}

// Property: GRE encap/decap is lossless for any flow key, payload and
// tenant, through real wire bytes.
func TestGRERoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, tenant uint32, payload []byte, virtual uint16) bool {
		in := packet.NewTCP(packet.TenantID(tenant), packet.IP(src), packet.IP(dst), sp, dp, 0)
		in.Payload = payload
		in.VirtualPayload = int(virtual)
		if in.IPLen() > 0xff00 {
			return true
		}
		outer, err := GREEncap(torA, torB, in.Tenant, in)
		if err != nil {
			return false
		}
		wire, err := outer.AppendMarshal(nil)
		if err != nil {
			return false
		}
		outer2, err := packet.Unmarshal(wire)
		if err != nil {
			return false
		}
		got, ten, err := GREDecap(outer2)
		if err != nil {
			return false
		}
		return ten == in.Tenant && got.Key() == in.Key() && got.PayloadLen() == in.PayloadLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
