package tunnel

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/packet"
)

// frameCase is one inner packet and encap call, decoded from a few bytes
// of entropy so the random test and the fuzz target share one body.
type frameCase struct {
	src, dst     uint32
	sport, dport uint16
	tenant       uint32
	hash         uint64
	shape        uint8 // bit 0 UDP, bit 1 VLAN, bit 2 IP proto contradicts the L4 header, bit 3 no L4 header
	virtual      uint16
	prefix       uint8 // bytes already in the destination buffer
	payload      []byte
}

func (c frameCase) inner() *packet.Packet {
	p := packet.NewTCP(packet.TenantID(c.tenant), packet.IP(c.src), packet.IP(c.dst), c.sport, c.dport, int(c.virtual))
	p.TCP.Seq, p.TCP.Ack, p.TCP.Flags = uint32(c.hash), uint32(c.hash>>32), packet.TCPFlags(c.shape)
	if c.shape&1 != 0 {
		p = packet.NewUDP(p.Tenant, packet.IP(c.src), packet.IP(c.dst), c.sport, c.dport, int(c.virtual))
	}
	p.Eth.Src, p.Eth.Dst = packet.MAC{2, 0, 0, 0, 0, byte(c.sport)}, packet.MAC{2, 0, 0, 0, 1, byte(c.dport)}
	p.IP.Ident, p.IP.TOS = c.dport, byte(c.tenant)
	p.Payload = c.payload
	if c.shape&2 != 0 {
		p.VLAN = &packet.VLAN{PCP: uint8(c.sport) & 7, ID: packet.VLANID(c.dport) & 0xfff}
	}
	if c.shape&4 != 0 {
		p.IP.Proto = packet.ProtoGRE
	}
	if c.shape&8 != 0 {
		p.TCP, p.UDP = nil, nil
	}
	return p
}

// check requires AppendVXLANFrame to produce the bytes and the error of
// VXLANEncapHashed followed by AppendMarshalTruncated, into a dirty buffer
// that already holds a prefix, with and without room to spare.
func (c frameCase) check(t testing.TB) {
	t.Helper()
	in := c.inner()
	prefix := bytes.Repeat([]byte{0xa5}, int(c.prefix))

	var want []byte
	outer, wantErr := VXLANEncapHashed(srvA, srvB, in.Tenant, in, c.hash)
	if wantErr == nil {
		want, wantErr = outer.AppendMarshalTruncated(append([]byte(nil), prefix...))
		Release(outer)
	}

	for _, room := range []int{0, 4096} {
		buf := bytes.Repeat([]byte{0xa5}, len(prefix)+room)[:len(prefix)]
		got, err := AppendVXLANFrame(buf, srvA, srvB, in.Tenant, in, c.hash)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("room %d: error %v, two-step path %v", room, err, wantErr)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("room %d: %d bytes returned beside error %v", room, len(got), err)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("room %d: frame differs from the two-step path\n got %x\nwant %x", room, got, want)
		}
	}
}

func TestVXLANFrameMatchesEncapThenMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(4789))
	var failed, oversize int
	for i := 0; i < 4000; i++ {
		c := frameCase{
			src: rng.Uint32(), dst: rng.Uint32(),
			sport: uint16(rng.Uint32()), dport: uint16(rng.Uint32()),
			tenant: rng.Uint32(), hash: rng.Uint64(),
			shape:  uint8(rng.Intn(4)),
			prefix: uint8(rng.Intn(3) * rng.Intn(100)),
		}
		if rng.Intn(10) == 0 {
			c.shape |= uint8(4 << rng.Intn(2))
		}
		switch rng.Intn(4) {
		case 0:
			c.virtual = uint16(rng.Intn(1 << 16)) // some oversize the inner frame, some only the outer
		case 1:
			c.virtual = uint16(65535 - 150 + rng.Intn(150)) // around both limits
		}
		if rng.Intn(4) != 0 {
			c.payload = make([]byte, rng.Intn(300))
			rng.Read(c.payload)
		}
		c.check(t)
		in := c.inner()
		if _, err := AppendVXLANFrame(nil, srvA, srvB, in.Tenant, in, c.hash); err != nil {
			failed++
			if in.IPLen() <= 0xffff && c.shape&4 == 0 {
				oversize++
			}
		}
	}
	if failed == 0 || oversize == 0 {
		t.Fatalf("the cases never reached the error paths: %d failed, %d of them on the outer length alone", failed, oversize)
	}
}

func FuzzVXLANFrame(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(0x0a000002), uint16(40000), uint16(11211), uint32(77), uint64(12345), uint8(0), uint16(0), uint8(0), []byte("VALUE k 0 5\r\nhello\r\nEND\r\n"))
	f.Add(uint32(1), uint32(2), uint16(3), uint16(4), uint32(0xffffffff), ^uint64(0), uint8(3), uint16(32000), uint8(7), []byte{0xff})
	f.Add(uint32(1), uint32(2), uint16(3), uint16(4), uint32(5), uint64(6), uint8(4), uint16(0), uint8(1), []byte{})
	f.Add(uint32(1), uint32(2), uint16(3), uint16(4), uint32(5), uint64(6), uint8(0), uint16(65480), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, tenant uint32, hash uint64, shape uint8, virtual uint16, prefix uint8, payload []byte) {
		if len(payload) > 2048 {
			payload = payload[:2048]
		}
		frameCase{src, dst, sport, dport, tenant, hash, shape, virtual, prefix, payload}.check(t)
	})
}

// TestVXLANFrameDecaps closes the loop on the writer alone: its bytes
// parse as a VXLAN packet whose inner frame is the one encapsulated.
func TestVXLANFrameDecaps(t *testing.T) {
	in := innerPacket()
	wire, err := AppendVXLANFrame(nil, srvA, srvB, in.Tenant, in, in.Key().FastHash())
	if err != nil {
		t.Fatal(err)
	}
	outer, err := packet.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	got, tenant, err := VXLANDecap(outer)
	if err != nil {
		t.Fatal(err)
	}
	got.Tenant = in.Tenant
	if tenant != in.Tenant || got.Key() != in.Key() || !bytes.Equal(got.Payload, in.Payload) {
		t.Fatalf("decap of the written frame: tenant %d key %v payload %q", tenant, got.Key(), got.Payload)
	}
}
