package packet

import (
	"fmt"
	"time"
)

// Meta carries simulation bookkeeping that is not on the wire: timestamps
// for latency accounting and the path label for experiment breakdowns.
// Real switches keep equivalent per-packet metadata in their pipeline.
type Meta struct {
	// SentAt is the virtual time the application handed the payload to
	// the stack; latency histograms measure arrival minus SentAt.
	SentAt time.Duration
	// Path records which interface the packet left the VM through
	// ("vif" or "vf"), set by the flow placer.
	Path string
	// Seq is an application-level sequence/transaction number used by
	// workload generators to match responses to requests.
	Seq uint64
}

// Packet is one frame moving through the testbed. Headers are structured
// for cheap inspection in the simulation hot path and marshal to exact wire
// bytes on demand (see Marshal); tunnel encap/decap round-trips through the
// byte format.
//
// Payload may hold real bytes; VirtualPayload adds that many implicit zero
// bytes so experiments can model 32000-byte application writes without
// allocating them. All length and checksum computations account for the
// virtual bytes exactly (zeros are transparent to the Internet checksum).
type Packet struct {
	Eth  Ethernet
	VLAN *VLAN // optional 802.1Q tag
	IP   IPv4
	TCP  *TCPHeader // set iff IP.Proto == ProtoTCP
	UDP  *UDPHeader // set iff IP.Proto == ProtoUDP

	Payload        []byte
	VirtualPayload int

	// Tenant is pipeline metadata: the tenant the packet was attributed
	// to by the vswitch (from its VIF) or by the ToR (from the VLAN tag
	// or GRE key). It is not an on-wire field of the inner packet.
	Tenant TenantID

	Meta Meta

	// Payload-checksum memo: the one's-complement partial sum of Payload,
	// valid while csumFor is identical (same backing array, same length)
	// to Payload. Payload bytes are treated as immutable once attached —
	// the testbed never rewrites them in place — so an
	// unmodified frame re-marshaled on an encap hop skips re-summing its
	// payload, the dominant checksum cost.
	csumFor []byte
	csumSum uint32
}

// PayloadLen returns the total L4 payload length, real plus virtual.
func (p *Packet) PayloadLen() int { return len(p.Payload) + p.VirtualPayload }

// l4Len returns the length of the L4 header plus payload.
func (p *Packet) l4Len() int {
	switch {
	case p.TCP != nil:
		return TCPHeaderLen + p.PayloadLen()
	case p.UDP != nil:
		return UDPHeaderLen + p.PayloadLen()
	default:
		return p.PayloadLen()
	}
}

// IPLen returns the IPv4 total length (header + L4).
func (p *Packet) IPLen() int { return IPv4HeaderLen + p.l4Len() }

// WireLen returns the full frame length on the wire, including Ethernet
// and any VLAN tag. Serialization delay on links is computed from this.
func (p *Packet) WireLen() int {
	n := EthernetHeaderLen + p.IPLen()
	if p.VLAN != nil {
		n += VLANTagLen
	}
	return n
}

// Key returns the packet's 6-tuple FlowKey (§4.3.1), combining on-wire
// addressing with the pipeline's tenant attribution.
func (p *Packet) Key() FlowKey {
	k := FlowKey{Src: p.IP.Src, Dst: p.IP.Dst, Proto: p.IP.Proto, Tenant: p.Tenant}
	switch {
	case p.TCP != nil:
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return k
}

// AppendMarshal appends the serialized frame (virtual payload
// materialized as zeros) to dst and returns the extended slice. With a
// pooled or reused dst this path is allocation-free.
func (p *Packet) AppendMarshal(dst []byte) ([]byte, error) {
	return p.appendFrame(dst, false)
}

// MarshalTruncated serializes the frame with virtual payload bytes elided:
// headers and real payload only, while length fields and checksums still
// describe the full packet (virtual bytes are zeros, which the Internet
// checksum ignores). Tunnel encapsulation uses this so a 32000-byte
// virtual payload never gets materialized; Unmarshal of the truncated
// bytes reconstructs the virtual length from the IP total-length field.
func (p *Packet) MarshalTruncated() ([]byte, error) {
	return p.AppendMarshalTruncated(make([]byte, 0, p.WireLen()-p.VirtualPayload))
}

// AppendMarshalTruncated appends the truncated serialization to dst (see
// MarshalTruncated). The tunnel encap path marshals inner frames directly
// into the pooled outer payload through this.
func (p *Packet) AppendMarshalTruncated(dst []byte) ([]byte, error) {
	return p.appendFrame(dst, true)
}

// AppendMarshalIPv4Truncated appends the IPv4-onward serialization — the
// form GRE carries across the fabric (GRE protocol type 0x0800) — to dst,
// with virtual payload bytes elided (see MarshalTruncated).
func (p *Packet) AppendMarshalIPv4Truncated(dst []byte) ([]byte, error) {
	all, b := grow(dst, p.IPLen()-p.VirtualPayload)
	if err := p.marshalIPv4(b); err != nil {
		return nil, err
	}
	return all, nil
}

// appendFrame appends the Ethernet-onward serialization to dst.
func (p *Packet) appendFrame(dst []byte, truncated bool) ([]byte, error) {
	n := p.WireLen()
	if truncated {
		n -= p.VirtualPayload
	}
	all, b := grow(dst, n)
	if !truncated && p.VirtualPayload > 0 {
		clear(b[n-p.VirtualPayload:]) // reused buffers are dirty
	}
	off := EthernetHeaderLen
	if p.VLAN != nil {
		p.Eth.marshal(b, EtherTypeVLAN)
		p.VLAN.marshal(b[off:], EtherTypeIPv4)
		off += VLANTagLen
	} else {
		p.Eth.marshal(b, EtherTypeIPv4)
	}
	if err := p.marshalIPv4(b[off:]); err != nil {
		return nil, err
	}
	return all, nil
}

// grow extends dst by n bytes in place when capacity allows, returning
// the full slice and the (possibly dirty) n-byte tail to marshal into.
func grow(dst []byte, n int) (all, tail []byte) {
	l := len(dst)
	if cap(dst)-l >= n {
		all = dst[:l+n]
	} else {
		all = append(dst, make([]byte, n)...)
	}
	return all, all[l:]
}

// payloadSum returns the one's-complement partial sum of the real payload
// bytes, memoized by slice identity (see the csumFor field docs).
func (p *Packet) payloadSum() uint32 {
	if len(p.Payload) == 0 {
		return 0
	}
	if len(p.csumFor) == len(p.Payload) && &p.csumFor[0] == &p.Payload[0] {
		return p.csumSum
	}
	s := partialSum(p.Payload)
	p.csumFor, p.csumSum = p.Payload, s
	return s
}

func (p *Packet) marshalIPv4(b []byte) error {
	if err := p.IP.marshal(b, p.IPLen()); err != nil {
		return err
	}
	off := IPv4HeaderLen
	switch {
	case p.TCP != nil:
		if p.IP.Proto != ProtoTCP {
			return fmt.Errorf("packet: TCP header with IP proto %d", p.IP.Proto)
		}
		p.TCP.marshal(b[off:], p.IP.Src, p.IP.Dst, p.payloadSum(), len(p.Payload), p.VirtualPayload)
		off += TCPHeaderLen
	case p.UDP != nil:
		if p.IP.Proto != ProtoUDP {
			return fmt.Errorf("packet: UDP header with IP proto %d", p.IP.Proto)
		}
		p.UDP.marshal(b[off:], p.IP.Src, p.IP.Dst, p.payloadSum(), len(p.Payload), p.VirtualPayload)
		off += UDPHeaderLen
	}
	copy(b[off:], p.Payload)
	// Bytes beyond the real payload (virtual payload, non-truncated form
	// only) were zeroed by the caller.
	return nil
}

// UDPFrameHeaderLen is the length of the Ethernet, IPv4 and UDP headers
// PutUDPFrameHeaders writes.
const UDPFrameHeaderLen = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen

// PutUDPFrameHeaders writes into b[:UDPFrameHeaderLen] the Ethernet (zero
// addresses, as a zero Packet.Eth marshals), IPv4 and UDP headers of a
// datagram whose payload is the given bytes followed by virtual implicit
// zeros, with the same header writers and the same errors as marshaling a
// Packet built from those parts. It is what lets tunnel encapsulation
// write an outer frame around an inner one already in place, in one pass:
// payload normally aliases the bytes right after b.
func PutUDPFrameHeaders(b []byte, ip IPv4, udp UDPHeader, payload []byte, virtual int) error {
	new(Ethernet).marshal(b, EtherTypeIPv4)
	b = b[EthernetHeaderLen:UDPFrameHeaderLen]
	if err := ip.marshal(b, IPv4HeaderLen+UDPHeaderLen+len(payload)+virtual); err != nil {
		return err
	}
	if ip.Proto != ProtoUDP {
		return fmt.Errorf("packet: UDP header with IP proto %d", ip.Proto)
	}
	udp.marshal(b[IPv4HeaderLen:], ip.Src, ip.Dst, partialSum(payload), len(payload), virtual)
	return nil
}

// Unmarshal parses a frame starting at the Ethernet header. The IPv4 total
// length field reconstructs any virtual payload: bytes promised by the
// header but not present in b are restored as VirtualPayload.
func Unmarshal(b []byte) (*Packet, error) {
	eth, err := unmarshalEthernet(b)
	if err != nil {
		return nil, err
	}
	p := &Packet{Eth: eth}
	off := EthernetHeaderLen
	if eth.EtherType == EtherTypeVLAN {
		v, inner, err := unmarshalVLAN(b[off:])
		if err != nil {
			return nil, err
		}
		p.VLAN = &v
		p.Eth.EtherType = inner
		off += VLANTagLen
	}
	if p.Eth.EtherType != EtherTypeIPv4 {
		return nil, fmt.Errorf("packet: unsupported ethertype %#04x", p.Eth.EtherType)
	}
	if err := unmarshalIPv4Into(p, b[off:]); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalIPv4 parses from the IPv4 header onward (the GRE inner form).
func UnmarshalIPv4(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := unmarshalIPv4Into(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

func unmarshalIPv4Into(p *Packet, b []byte) error {
	ip, totalLen, err := unmarshalIPv4(b)
	if err != nil {
		return err
	}
	p.IP = ip
	off := IPv4HeaderLen
	switch ip.Proto {
	case ProtoTCP:
		t, err := unmarshalTCP(b[off:])
		if err != nil {
			return err
		}
		p.TCP = &t
		off += TCPHeaderLen
	case ProtoUDP:
		u, err := unmarshalUDP(b[off:])
		if err != nil {
			return err
		}
		p.UDP = &u
		off += UDPHeaderLen
	}
	present := len(b) - off
	promised := totalLen - off
	if promised < 0 {
		return fmt.Errorf("packet: total length %d shorter than headers", totalLen)
	}
	if present > promised {
		present = promised // trailing padding beyond IP total length
	}
	if present > 0 {
		p.Payload = append([]byte(nil), b[off:off+present]...)
	}
	p.VirtualPayload = promised - present
	return nil
}

// String renders a one-line summary for traces.
func (p *Packet) String() string {
	k := p.Key()
	extra := ""
	if p.TCP != nil {
		extra = fmt.Sprintf(" %s seq=%d ack=%d", p.TCP.Flags, p.TCP.Seq, p.TCP.Ack)
	}
	return fmt.Sprintf("%s len=%d%s", k, p.WireLen(), extra)
}
