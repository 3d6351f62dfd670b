package packet

import (
	"encoding/binary"
	"fmt"
)

// Header sizes in bytes.
const (
	EthernetHeaderLen = 14
	VLANTagLen        = 4
	IPv4HeaderLen     = 20 // no options
	TCPHeaderLen      = 20 // no options
	UDPHeaderLen      = 8
	GREBaseHeaderLen  = 4
	GREKeyLen         = 4
	VXLANHeaderLen    = 8
)

// Ethernet is an Ethernet II header. When a VLAN tag is present the tag is
// carried separately (Packet.VLAN) and EtherType describes the payload
// beyond the tag.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

// VLAN is an 802.1Q tag. The testbed uses it on the server↔ToR hop: the
// NIC tags SR-IOV VF traffic with the tenant's VLAN ID so the ToR can pick
// the right VRF table (§4.2.1).
type VLAN struct {
	PCP uint8 // priority code point (0–7)
	ID  VLANID
}

// IPv4 is an IPv4 header without options. TotalLen and checksum are
// computed during marshaling.
type IPv4 struct {
	TOS      byte
	Ident    uint16
	TTL      byte
	Proto    byte
	Src, Dst IP
}

// TCPFlags is the TCP flag byte.
type TCPFlags byte

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

func (f TCPFlags) String() string {
	s := ""
	for _, fl := range []struct {
		bit  TCPFlags
		name string
	}{{FlagSYN, "S"}, {FlagACK, "A"}, {FlagFIN, "F"}, {FlagRST, "R"}, {FlagPSH, "P"}} {
		if f&fl.bit != 0 {
			s += fl.name
		}
	}
	if s == "" {
		return "."
	}
	return s
}

// TCPHeader is a TCP header without options.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint16
}

// UDPHeader is a UDP header; length and checksum are computed during
// marshaling.
type UDPHeader struct {
	SrcPort, DstPort uint16
}

// GRE is a GRE header (RFC 1701/2890). FasTrak reuses the optional 32-bit
// key to carry the tenant ID across the fabric (§4.1.3).
type GRE struct {
	HasKey bool
	Key    uint32
	Proto  uint16 // EtherType of the encapsulated protocol
}

// Len returns the wire length of the GRE header.
func (g GRE) Len() int {
	if g.HasKey {
		return GREBaseHeaderLen + GREKeyLen
	}
	return GREBaseHeaderLen
}

// VXLAN is a VXLAN header carrying a 24-bit VNI.
type VXLAN struct {
	VNI uint32
}

// The Internet checksum (RFC 1071) is the one's-complement sum of a
// region's big-endian 16-bit words. Every routine here works on partial
// sums: unsigned integers congruent to that sum mod 0xffff, and zero only
// when every word summed was zero. 2^16 ≡ 1 (mod 0xffff), so a wider
// big-endian word is congruent to the sum of its 16-bit words, partial
// sums add, and folding the high half onto the low half preserves both
// properties. Any two partial sums of the same data therefore fold to the
// same 16 bits — which is what lets the kernel below take eight bytes a
// step, and the header writers sum their fields instead of re-reading the
// bytes they wrote, without changing one emitted checksum.

// fold reduces a partial sum to 16 bits, in a fixed number of steps: how
// many a loop would take depends on the data, and that branch mispredicts.
func fold(sum uint64) uint16 {
	sum = sum>>32 + sum&0xffffffff // < 2^33
	sum = sum>>16 + sum&0xffff     // < 3 * 2^16
	sum = sum>>16 + sum&0xffff     // <= 2^16 + 1
	sum = sum>>16 + sum&0xffff     // <= 0xffff
	return uint16(sum)
}

// partialSum returns the partial sum of b folded to 16 bits, treating b as
// starting on an even (16-bit) boundary — true for L4 payloads, which
// follow an even-length header stack — and a trailing odd byte as the high
// byte of a zero-padded word. Packet memoizes this over its payload so
// unmodified frames re-marshaled on encap hops skip the dominant checksum
// cost.
func partialSum(b []byte) uint32 {
	// Words are added as two 32-bit halves, which cannot carry out of 64
	// bits in under 2^29 steps of either loop: no carry handling.
	const lo = 0xffffffff
	var sum uint64
	for len(b) >= 32 {
		w0, w1 := binary.BigEndian.Uint64(b), binary.BigEndian.Uint64(b[8:])
		w2, w3 := binary.BigEndian.Uint64(b[16:]), binary.BigEndian.Uint64(b[24:])
		sum += (w0>>32 + w0&lo) + (w1>>32 + w1&lo) + (w2>>32 + w2&lo) + (w3>>32 + w3&lo)
		b = b[32:]
	}
	for len(b) >= 8 {
		w := binary.BigEndian.Uint64(b)
		sum += w>>32 + w&lo
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	return uint32(fold(sum))
}

// marshal writes the header with the given EtherType: the frame's own,
// which is the VLAN tag's when one follows, not e.EtherType. Through the
// pointer the addresses are copied from where they live; a patched copy of
// the struct would be written and read back at different widths.
func (e *Ethernet) marshal(b []byte, etherType uint16) {
	copy(b[0:6], e.Dst[:])
	copy(b[6:12], e.Src[:])
	binary.BigEndian.PutUint16(b[12:14], etherType)
}

func unmarshalEthernet(b []byte) (Ethernet, error) {
	if len(b) < EthernetHeaderLen {
		return Ethernet{}, fmt.Errorf("packet: ethernet header truncated: %d bytes", len(b))
	}
	var e Ethernet
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return e, nil
}

func (v VLAN) marshal(b []byte, innerEtherType uint16) {
	tci := uint16(v.PCP&0x7)<<13 | uint16(v.ID)&0x0fff
	binary.BigEndian.PutUint16(b[0:2], tci)
	binary.BigEndian.PutUint16(b[2:4], innerEtherType)
}

func unmarshalVLAN(b []byte) (VLAN, uint16, error) {
	if len(b) < VLANTagLen {
		return VLAN{}, 0, fmt.Errorf("packet: vlan tag truncated: %d bytes", len(b))
	}
	tci := binary.BigEndian.Uint16(b[0:2])
	return VLAN{PCP: uint8(tci >> 13), ID: VLANID(tci & 0x0fff)}, binary.BigEndian.Uint16(b[2:4]), nil
}

// marshal writes the IPv4 header with the given total length (header +
// payload). The header checksum is summed from the fields.
//
// TOS, TTL and Proto are summed and stored a byte at a time on purpose. A
// six-field struct is passed split across registers and spilled field by
// field, and the compiler turns ttl<<8|proto into one 16-bit load — which
// would straddle two byte stores still in flight and stall on them.
func (ip IPv4) marshal(b []byte, totalLen int) error {
	if totalLen > 0xffff {
		return fmt.Errorf("packet: ipv4 total length %d exceeds 65535", totalLen)
	}
	_ = b[IPv4HeaderLen-1]
	sum := 0x4500 + uint64(ip.TOS) + uint64(totalLen) + uint64(ip.Ident) +
		uint64(ip.TTL)<<8 + uint64(ip.Proto) +
		uint64(ip.Src>>16) + uint64(ip.Src&0xffff) + uint64(ip.Dst>>16) + uint64(ip.Dst&0xffff)
	b[0] = 0x45 // version 4, IHL 5
	b[1] = ip.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(totalLen))
	binary.BigEndian.PutUint16(b[4:6], ip.Ident)
	binary.BigEndian.PutUint16(b[6:8], 0) // flags+fragment offset: DF not modeled
	b[8] = ip.TTL
	b[9] = ip.Proto
	binary.BigEndian.PutUint16(b[10:12], ^fold(sum))
	binary.BigEndian.PutUint32(b[12:16], uint32(ip.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(ip.Dst))
	return nil
}

func unmarshalIPv4(b []byte) (IPv4, int, error) {
	if len(b) < IPv4HeaderLen {
		return IPv4{}, 0, fmt.Errorf("packet: ipv4 header truncated: %d bytes", len(b))
	}
	if b[0]>>4 != 4 {
		return IPv4{}, 0, fmt.Errorf("packet: not IPv4: version %d", b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl != IPv4HeaderLen {
		return IPv4{}, 0, fmt.Errorf("packet: ipv4 options unsupported: ihl %d", ihl)
	}
	if partialSum(b[:IPv4HeaderLen]) != 0xffff { // a region holding its own checksum sums to all ones
		return IPv4{}, 0, fmt.Errorf("packet: ipv4 header checksum mismatch")
	}
	ip := IPv4{
		TOS:   b[1],
		Ident: binary.BigEndian.Uint16(b[4:6]),
		TTL:   b[8],
		Proto: b[9],
		Src:   IP(binary.BigEndian.Uint32(b[12:16])),
		Dst:   IP(binary.BigEndian.Uint32(b[16:20])),
	}
	totalLen := int(binary.BigEndian.Uint16(b[2:4]))
	if totalLen < IPv4HeaderLen {
		return IPv4{}, 0, fmt.Errorf("packet: ipv4 total length %d < header length", totalLen)
	}
	return ip, totalLen, nil
}

// pseudoHeaderSum returns the partial sum of the TCP/UDP pseudo header.
func pseudoHeaderSum(src, dst IP, proto byte, l4len int) uint64 {
	return uint64(src>>16) + uint64(src&0xffff) + uint64(dst>>16) + uint64(dst&0xffff) +
		uint64(proto) + uint64(l4len)
}

// marshal writes the TCP header and checksum. paySum is the partial sum of
// the real payload bytes (memoized by the Packet); virtualLen is the count
// of additional implicit zero bytes (zeros do not perturb the sum, so the
// checksum remains exact). The header's own words are summed from the
// fields.
func (t TCPHeader) marshal(b []byte, src, dst IP, paySum uint32, payLen, virtualLen int) {
	_ = b[TCPHeaderLen-1]
	offFlags := 5<<12 | uint16(t.Flags) // data offset: 5 words
	sum := pseudoHeaderSum(src, dst, ProtoTCP, TCPHeaderLen+payLen+virtualLen) + uint64(paySum) +
		uint64(t.SrcPort) + uint64(t.DstPort) + uint64(t.Seq>>16) + uint64(t.Seq&0xffff) +
		uint64(t.Ack>>16) + uint64(t.Ack&0xffff) + uint64(offFlags) + uint64(t.Window)
	binary.BigEndian.PutUint16(b[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], t.DstPort)
	binary.BigEndian.PutUint32(b[4:8], t.Seq)
	binary.BigEndian.PutUint32(b[8:12], t.Ack)
	binary.BigEndian.PutUint16(b[12:14], offFlags)
	binary.BigEndian.PutUint16(b[14:16], t.Window)
	binary.BigEndian.PutUint16(b[16:18], ^fold(sum))
	binary.BigEndian.PutUint16(b[18:20], 0) // urgent pointer
}

func unmarshalTCP(b []byte) (TCPHeader, error) {
	if len(b) < TCPHeaderLen {
		return TCPHeader{}, fmt.Errorf("packet: tcp header truncated: %d bytes", len(b))
	}
	if off := int(b[12]>>4) * 4; off != TCPHeaderLen {
		return TCPHeader{}, fmt.Errorf("packet: tcp options unsupported: offset %d", off)
	}
	return TCPHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Ack:     binary.BigEndian.Uint32(b[8:12]),
		Flags:   TCPFlags(b[13]),
		Window:  binary.BigEndian.Uint16(b[14:16]),
	}, nil
}

func (u UDPHeader) marshal(b []byte, src, dst IP, paySum uint32, payLen, virtualLen int) {
	_ = b[UDPHeaderLen-1]
	l4len := UDPHeaderLen + payLen + virtualLen
	sum := pseudoHeaderSum(src, dst, ProtoUDP, l4len) + uint64(paySum) +
		uint64(u.SrcPort) + uint64(u.DstPort) + uint64(uint16(l4len))
	csum := ^fold(sum)
	if csum == 0 {
		csum = 0xffff // RFC 768: transmitted zero means "no checksum"
	}
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(l4len))
	binary.BigEndian.PutUint16(b[6:8], csum)
}

func unmarshalUDP(b []byte) (UDPHeader, error) {
	if len(b) < UDPHeaderLen {
		return UDPHeader{}, fmt.Errorf("packet: udp header truncated: %d bytes", len(b))
	}
	return UDPHeader{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
	}, nil
}

// Marshal writes the GRE header.
func (g GRE) Marshal(b []byte) {
	var flags uint16
	if g.HasKey {
		flags |= 0x2000 // K bit
	}
	binary.BigEndian.PutUint16(b[0:2], flags)
	binary.BigEndian.PutUint16(b[2:4], g.Proto)
	if g.HasKey {
		binary.BigEndian.PutUint32(b[4:8], g.Key)
	}
}

// UnmarshalGRE parses a GRE header, returning the header and its length.
func UnmarshalGRE(b []byte) (GRE, int, error) {
	if len(b) < GREBaseHeaderLen {
		return GRE{}, 0, fmt.Errorf("packet: gre header truncated: %d bytes", len(b))
	}
	flags := binary.BigEndian.Uint16(b[0:2])
	g := GRE{Proto: binary.BigEndian.Uint16(b[2:4])}
	n := GREBaseHeaderLen
	if flags&0x2000 != 0 {
		if len(b) < GREBaseHeaderLen+GREKeyLen {
			return GRE{}, 0, fmt.Errorf("packet: gre key truncated")
		}
		g.HasKey = true
		g.Key = binary.BigEndian.Uint32(b[4:8])
		n += GREKeyLen
	}
	if flags&0xd000 != 0 { // C, R, S bits unsupported
		return GRE{}, 0, fmt.Errorf("packet: gre optional fields unsupported: flags %#x", flags)
	}
	return g, n, nil
}

// Marshal writes the VXLAN header.
func (v VXLAN) Marshal(b []byte) {
	binary.BigEndian.PutUint32(b[0:4], 1<<27) // I flag: VNI valid
	binary.BigEndian.PutUint32(b[4:8], v.VNI<<8)
}

// UnmarshalVXLAN parses a VXLAN header.
func UnmarshalVXLAN(b []byte) (VXLAN, error) {
	if len(b) < VXLANHeaderLen {
		return VXLAN{}, fmt.Errorf("packet: vxlan header truncated: %d bytes", len(b))
	}
	if binary.BigEndian.Uint32(b[0:4])&(1<<27) == 0 {
		return VXLAN{}, fmt.Errorf("packet: vxlan I flag not set")
	}
	return VXLAN{VNI: binary.BigEndian.Uint32(b[4:8]) >> 8}, nil
}
