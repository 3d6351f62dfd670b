package packet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// rfc1071 is the independent checksum oracle: the byte-pair loop of RFC
// 1071 §4.1, folded to 16 bits and not inverted. It shares nothing with
// the production kernel, so the kernel can be rewritten against it. A
// region that carries its own valid checksum sums to 0xffff.
func rfc1071(regions ...[]byte) uint16 {
	var sum uint32
	for i, b := range regions {
		if len(b)%2 != 0 && i != len(regions)-1 {
			panic("rfc1071: only the last region may have odd length")
		}
		for len(b) >= 2 {
			sum += uint32(b[0])<<8 | uint32(b[1])
			b = b[2:]
		}
		if len(b) == 1 {
			sum += uint32(b[0]) << 8
		}
		for sum>>16 != 0 {
			sum = sum&0xffff + sum>>16
		}
	}
	return uint16(sum)
}

// checksumError checks every checksum a serialized frame carries: the
// IPv4 header's, and the TCP or UDP checksum over pseudo-header, L4
// header and the payload bytes present (elided virtual bytes are zeros).
// A UDP payload on the VXLAN port is parsed as an inner frame and checked
// too.
func checksumError(frame []byte) error {
	off := EthernetHeaderLen
	if binary.BigEndian.Uint16(frame[12:14]) == EtherTypeVLAN {
		off += VLANTagLen
	}
	ip := frame[off:]
	if got := rfc1071(ip[:IPv4HeaderLen]); got != 0xffff {
		return fmt.Errorf("ipv4 header sums to %#04x, want 0xffff", got)
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:4]))
	proto := ip[9]
	l4 := ip[IPv4HeaderLen:]
	if len(ip) > totalLen {
		l4 = ip[IPv4HeaderLen:totalLen]
	}
	if proto != ProtoTCP && proto != ProtoUDP {
		return nil
	}
	var pseudo [12]byte
	copy(pseudo[0:8], ip[12:20])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(totalLen-IPv4HeaderLen))
	if got := rfc1071(pseudo[:], l4); got != 0xffff {
		return fmt.Errorf("proto %d segment sums to %#04x, want 0xffff", proto, got)
	}
	if proto != ProtoUDP {
		return nil
	}
	if got := binary.BigEndian.Uint16(l4[4:6]); got != uint16(totalLen-IPv4HeaderLen) {
		return fmt.Errorf("udp length %d, want %d", got, totalLen-IPv4HeaderLen)
	}
	if binary.BigEndian.Uint16(l4[6:8]) == 0 {
		return fmt.Errorf("udp checksum transmitted as zero (RFC 768: means no checksum)")
	}
	if binary.BigEndian.Uint16(l4[2:4]) == VXLANPort {
		if err := checksumError(l4[UDPHeaderLen+VXLANHeaderLen:]); err != nil {
			return fmt.Errorf("vxlan inner: %w", err)
		}
	}
	return nil
}

func verifyChecksums(t testing.TB, frame []byte) {
	t.Helper()
	if err := checksumError(frame); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumVerifierRejectsCorruption keeps the verifier honest: one
// flipped bit anywhere a checksum covers must fail it.
func TestChecksumVerifierRejectsCorruption(t *testing.T) {
	inner := NewTCP(3, MakeIP(10, 0, 0, 1), MakeIP(10, 0, 9, 1), 40000, 80, 0)
	inner.Payload = []byte("payload")
	frame, err := vxlanOuter(t, inner, 50000).AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyChecksums(t, frame)
	for i := EthernetHeaderLen; i < len(frame); i++ {
		frame[i] ^= 0x10
		if checksumError(frame) == nil {
			t.Fatalf("bit flip at byte %d not detected", i)
		}
		frame[i] ^= 0x10
	}
}

// vxlanOuter wraps inner the way tunnel.VXLANEncap does (this package
// cannot import tunnel): UDP to the VXLAN port whose payload is the VXLAN
// header plus the truncated inner frame, the inner's virtual bytes
// carried as the outer's.
func vxlanOuter(t testing.TB, inner *Packet, sport uint16) *Packet {
	t.Helper()
	payload := make([]byte, VXLANHeaderLen, VXLANHeaderLen+inner.WireLen())
	VXLAN{VNI: uint32(inner.Tenant) & 0xffffff}.Marshal(payload)
	payload, err := inner.AppendMarshalTruncated(payload)
	if err != nil {
		t.Fatal(err)
	}
	outer := NewUDP(inner.Tenant, MakeIP(192, 168, 1, 10), MakeIP(192, 168, 1, 11), sport, VXLANPort, inner.VirtualPayload)
	outer.Payload = payload
	return outer
}

// checksumCase is one frame to verify, decoded from a few bytes of
// entropy so the random test and the fuzz target share one body.
type checksumCase struct {
	src, dst     uint32
	sport, dport uint16
	seq, ack     uint32
	ident        uint16
	shape        uint8 // bit 0 UDP, bit 1 VLAN, bit 2 VXLAN-wrapped
	virtual      uint16
	payload      []byte
}

func (c checksumCase) check(t testing.TB) {
	p := NewTCP(TenantID(c.src^c.dst), IP(c.src), IP(c.dst), c.sport, c.dport, int(c.virtual))
	p.TCP.Seq, p.TCP.Ack = c.seq, c.ack
	p.TCP.Flags, p.TCP.Window = TCPFlags(c.ident), c.ident^0x5a5a
	if c.shape&1 != 0 {
		p = NewUDP(p.Tenant, IP(c.src), IP(c.dst), c.sport, c.dport, int(c.virtual))
	}
	p.IP.Ident, p.IP.TOS, p.IP.TTL = c.ident, byte(c.seq), byte(c.ack)
	p.Payload = c.payload
	if c.shape&2 != 0 {
		p.VLAN = &VLAN{PCP: uint8(c.ident) & 7, ID: VLANID(c.ident>>3) & 0xfff}
	}
	if c.shape&4 != 0 {
		p = vxlanOuter(t, p, c.sport|0xc000)
	}
	if p.IPLen() > 0xffff {
		return // Marshal refuses; TestOversizedPacketRejected covers it
	}
	full, err := p.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	verifyChecksums(t, full)
	trunc, err := p.AppendMarshalTruncated(make([]byte, 3, 64)) // dirty, non-empty, growing dst
	if err != nil {
		t.Fatal(err)
	}
	verifyChecksums(t, trunc[3:])
	// A second marshal of the same packet takes the memoized payload sum.
	again, err := p.MarshalTruncated()
	if err != nil {
		t.Fatal(err)
	}
	verifyChecksums(t, again)
}

func TestChecksumsVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	for i := 0; i < 4000; i++ {
		c := checksumCase{
			src: rng.Uint32(), dst: rng.Uint32(),
			sport: uint16(rng.Uint32()), dport: uint16(rng.Uint32()),
			seq: rng.Uint32(), ack: rng.Uint32(), ident: uint16(rng.Uint32()),
			shape: uint8(rng.Intn(8)),
		}
		if rng.Intn(3) == 0 {
			c.virtual = uint16(rng.Intn(40000))
		}
		switch rng.Intn(4) {
		case 0: // empty payload
		case 1: // all-ones words: sums that are multiples of 0xffff
			c.payload = make([]byte, 2*rng.Intn(40))
			for j := range c.payload {
				c.payload[j] = 0xff
			}
		default: // odd and even lengths alike
			c.payload = make([]byte, rng.Intn(300))
			rng.Read(c.payload)
		}
		c.check(t)
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add(uint32(0x0a000001), uint32(0x0a000002), uint16(40000), uint16(80), uint32(1), uint32(2), uint16(3), uint8(0), uint16(0), []byte("get key\r\n"))
	f.Add(uint32(0xffffffff), uint32(0xffffffff), uint16(0xffff), uint16(0xffff), uint32(0xffffffff), uint32(0xffffffff), uint16(0xffff), uint8(5), uint16(1), []byte{0xff, 0xff, 0xff})
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint32(0), uint32(0), uint16(0), uint8(7), uint16(32000), []byte{})
	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, seq, ack uint32, ident uint16, shape uint8, virtual uint16, payload []byte) {
		if len(payload) > 2048 {
			payload = payload[:2048]
		}
		checksumCase{src, dst, sport, dport, seq, ack, ident, shape, virtual, payload}.check(t)
	})
}

// TestUDPZeroChecksumTransmittedAsOnes steers a UDP datagram's computed
// checksum to zero through its source port and checks it leaves as 0xffff
// (RFC 768), plain and as the outer of a VXLAN frame.
func TestUDPZeroChecksumTransmittedAsOnes(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		build := func(sport uint16) []byte {
			p := NewUDP(7, MakeIP(10, 0, 0, 1), MakeIP(10, 0, 0, 2), sport, 53, 0)
			p.Payload = []byte{1, 2, 3, 4, 5}
			if wrapped {
				p.UDP.SrcPort = 5000
				p = vxlanOuter(t, p, sport)
			}
			b, err := p.AppendMarshal(nil)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		csumAt := EthernetHeaderLen + IPv4HeaderLen + 6
		// With source port 0 the datagram sums to ^c0; a source port of c0
		// brings that to 0xffff, whose inverse is zero.
		c0 := binary.BigEndian.Uint16(build(0)[csumAt:])
		b := build(c0)
		if got := binary.BigEndian.Uint16(b[csumAt:]); got != 0xffff {
			t.Fatalf("wrapped=%v: computed-zero udp checksum transmitted as %#04x, want 0xffff", wrapped, got)
		}
		verifyChecksums(t, b)
	}
}

// TestPartialSumMatchesOracle pins the payload kernel to the oracle at
// every length that exercises its word, half-word and byte tails, at every
// alignment of the slice within an 8-byte word, on random, all-ones and
// all-zero data. Two sums are the same checksum contribution when they
// fold to the same 16 bits: congruent mod 0xffff, and zero only together.
func TestPartialSumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(768))
	backing := make([]byte, 8+257)
	fold := func(s uint32) uint16 {
		for s>>16 != 0 {
			s = s&0xffff + s>>16
		}
		return uint16(s)
	}
	for _, fill := range []string{"random", "ones", "zeros"} {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 257; n++ {
				b := backing[off : off+n]
				switch fill {
				case "random":
					rng.Read(b)
				case "ones":
					for i := range b {
						b[i] = 0xff
					}
				default:
					clear(b)
				}
				if got, want := fold(partialSum(b)), rfc1071(b); got != want {
					t.Fatalf("%s data, offset %d, length %d: partialSum folds to %#04x, oracle %#04x", fill, off, n, got, want)
				}
			}
		}
	}
}
